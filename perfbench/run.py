"""archex benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload explore-keydoor --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; archex is imported from its ``src``. The
process is serial and single-threaded (numeric thread pools pinned to 1)
and closed-loop: after set-up it repeats a fixed unit of work, the next
repetition starting when the previous one ends, until ``--seconds`` is
(nearly) used up. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object.

``--workload all`` runs every workload, each in a fresh process;
``--selftest`` runs a workload twice untraced and once traced, each in a
fresh process, and requires identical fingerprints. See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
from statistics import median, quantiles
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
HELDOUT_SEED = 7919  # kept out of tuning; later claims are re-checked on it
WORKLOAD_NAMES = ("explore-keydoor", "explore-corridor-downscale", "robustify-eval")
# Phase throughputs: printed under these names by untraced runs, reported as
# per-layer metrics (measured on the untraced repetitions) by traced runs.
RATES = {
    "explore_frames_per_s": "explore.frames_per_s",
    "explore_frames_per_cpu_s": "explore.frames_per_cpu_s",
    "robustify_attempts_per_s": "robustify.attempts_per_s",
    "robustify_frames_per_s": "robustify.frames_per_s",
    "eval_episodes_per_s": "evaluation.episodes_per_s",
    "eval_frames_per_s": "evaluation.frames_per_s",
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    import numpy
    import workloads
    from speed import REFERENCE_PROBE_S, SpeedClock
    from tracer import Tracer, perf

    env_line = (f"python {platform.python_version()}, numpy {numpy.__version__}, "
                f"nproc {nproc()}")
    print(f"perfbench {workload.name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"({env_line})")
    ctx = workloads.Context(ROOT, WORK / f"{workload.name}-{seed}-{os.getpid()}", seed)
    ctx.work.mkdir(parents=True, exist_ok=True)
    clock = SpeedClock()
    try:
        setups, setup_s = [], []

        def set_up(times: int) -> None:
            for _ in range(times):
                t0 = perf()
                clock.mark()
                setups.append(workload.setup(ctx, len(setups)))
                setup_s.append(clock.seconds(t0, perf()))

        set_up(workload.setup_repeats)
        given = setups[0]

        plain, traced, tracers = [], [], []
        start = perf()
        while True:
            if plain:
                # Spread set-up samples over the run: machine speed can drift
                # in phases far longer than one burst of set-ups.
                set_up(workload.setup_repeats_per_rep)
            plain.append(workload.rep(ctx, given, len(plain) + len(traced), None, clock))
            if trace:
                tracer = Tracer()
                tracer.trace_id = len(plain) + len(traced)
                workloads.install_tracing(tracer)
                try:
                    traced.append(workload.rep(ctx, given, tracer.trace_id, tracer, None))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
            elapsed = perf() - start
            cycles = len(plain)
            if elapsed + 0.5 * elapsed / cycles >= seconds:
                break

        checks = [("same set-up", workload.same_setup(given, s)) for s in setups[1:]]
        reference = plain[0].fingerprint
        checks += [("same fingerprint", rep.fingerprint == reference)
                   for rep in plain[1:] + traced]
        checks += workload.verify(ctx, given, plain[0])
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"  check failed: {name}")
    print(f"  reps: {len(plain)} untraced" + (f", {len(traced)} traced" if trace else "")
          + f"; walls {', '.join(f'{r.wall:.2f}' for r in plain + traced)} s")
    print("fingerprint " + json.dumps(reference, sort_keys=True))

    rates = {name: median([r.rates[name] for r in plain]) for name in plain[0].rates}
    if trace:
        per_rep = [workloads.layer_metrics(t, r) for t, r in zip(tracers, traced)]
        values = {name: median([m[name] for m in per_rep]) for name in per_rep[0]}
        values["trace.overhead_ratio"] = (
            median([r.wall for r in traced]) / median([r.wall for r in plain]) - 1
        )
        for rate, name in RATES.items():
            values[name] = rates.get(rate, 0.0)
        listed = spec["per_layer"]
        trace_path = WORK / "traces" / f"{workload.name}-seed{seed}-{os.getpid()}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": seed, "environment": env_line,
            "metrics": values, "traces": [t.dump() for t in tracers],
        }))
        print(f"  trace written to {trace_path.relative_to(ROOT)}")
    else:
        steps = [s for r in plain for s in r.steps_s]
        values = {
            "setup_s": median(setup_s),
            "wall_s": median([r.ref_wall for r in plain]),
            "frames_per_s": median([r.frames / r.ref_wall for r in plain]),
            "iteration_ms_p50": 1000 * median(steps),
            "iteration_ms_p90": 1000 * quantiles(steps, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        listed = spec["end_to_end"]
        print(f"  iteration samples: {len(steps)}; speed probe median "
              f"{1000 * median(clock.probes):.3f} ms (reference "
              f"{1000 * REFERENCE_PROBE_S} ms)")
        for name, value, unit in (
            ("raw_wall_s", median([r.wall for r in plain]), "s"),
            ("raw_frames_per_s", median([r.frames / r.wall for r in plain]), "1/s"),
            ("raw_frames_per_cpu_s", median([r.frames / r.cpu for r in plain]), "1/s"),
        ):
            print(f"  {name:<34} {value:>14.6g} {unit}")
        for name in RATES:
            shown = f"{rates[name]:.6g}" if name in rates else "n/a"
            print(f"  {name:<34} {shown:>14} 1/s")
        print(f"  {'failed_ops_ratio':<34} {len(failed) / len(checks):>14.6g} ratio "
              f"({len(failed)}/{len(checks)})")

    metrics = {}
    for entry in listed:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<34} {value:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def child(name: str, args, trace: int) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        status |= subprocess.run(child(name, args, args.trace), cwd=ROOT).returncode
    return status


def selftest(args) -> int:
    """Same seed twice untraced and once traced, each in a fresh process:
    fingerprints must agree and every run must report correct."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        prints = []
        for trace in (0, 0, 1):
            proc = subprocess.run(child(name, args, trace), cwd=ROOT,
                                  capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            fingerprint = next((l for l in lines if l.startswith("fingerprint ")), None)
            correct = bool(lines) and proc.returncode == 0 and json.loads(lines[-1])["correct"]
            prints.append(fingerprint)
            ok &= correct and fingerprint is not None
            if not correct:
                sys.stderr.write(proc.stderr)
        same = len(set(prints)) == 1
        ok &= same
        print(f"selftest {name}: {'identical' if same else 'DIFFERENT'} fingerprints "
              f"(untraced, untraced, traced)")
        if not same:
            for line in prints:
                print(f"  {line}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for re-checking claims: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; at least one repetition always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "archex" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no archex sources under {SRC} or no {spec_path.name}; "
              "run from the root of an archex checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(args)
    if args.workload == "all":
        return run_all(args)

    for name in [n for n in os.environ if n.startswith("ARCHEX_")]:
        del os.environ[name]  # config overrides from the environment would change the inputs
    sys.path.insert(0, str(SRC))
    import archex

    if Path(archex.__file__).resolve().parent != SRC / "archex":
        print(f"perfbench: imported archex from {archex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads(spec_path.read_text())
    return run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
