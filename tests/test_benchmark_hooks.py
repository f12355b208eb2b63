"""The benchmark's tracer (perfbench/) wraps archex functions and methods by
name, such as ``explore.merge_results``, ``Demonstration.snapshot_at`` and
``selection.neigh_subscore``, and each workload's set-up calls archex
outside the tracer (for one, the explore workloads map the start
observation). A change that breaks either fails here too."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracing_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracer
        import workloads

        tr = tracer.Tracer()
        workloads.install_tracing(tr)
        patched = [(owner, attr, original) for owner, attr, original, own in tr._patches
                   if own]
        assert patched
        tr.uninstall()
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, attr
    finally:
        for name in ("speed", "tracer", "workloads"):
            sys.modules.pop(name, None)


def test_benchmark_setups_run(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import workloads

        for name, workload in workloads.WORKLOADS.items():
            work = tmp_path / name
            work.mkdir()
            assert workload.setup(workloads.Context(PERFBENCH.parent, work, 0), 0), name
    finally:
        for name in ("speed", "tracer", "workloads"):
            sys.modules.pop(name, None)
