"""The benchmark's tracer (perfbench/) wraps archex functions and methods by
name, such as ``explore.merge_results``, ``Demonstration.snapshot_at`` and
``selection.neigh_subscore``, and each workload's set-up calls archex
outside the tracer (for one, the explore workloads map the start
observation). A change that breaks either fails here too. One repetition
of each workload at seed 0 must also reproduce the fingerprint pinned
below: what archex computes, not how fast, is the same from change to
change."""

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


# Each workload's fingerprint at seed 0 (perfbench/run.py prints the same
# line): the archive's bytes, and for robustify-eval also the policy's bytes,
# the evaluation's grand mean and the bootstrap interval.
PINNED_FINGERPRINTS = {
    "explore-keydoor": {
        "archive_sha256": "e3f0082aefa66a411acee5983fe5b7a3a1fbdfb204aff1660ad6c403b48a10cf",
        "cells": 3224, "max_level": 4, "max_score": 4500.0,
    },
    "explore-corridor-downscale": {
        "archive_sha256": "c90e140b35623f45c89d10e0847790287c0629aa3d6323327bf739886dc8839d",
        "cells": 635, "max_level": 0, "max_score": 4478.0,
    },
    "robustify-eval": {
        "archive_sha256": "0d0e89262c4127522f60c2533e07109f92aea42516846f26829291551a035d1d",
        "cells": 730, "max_level": 5, "max_score": 5600.0,
        "min_starting_point": 63, "grand_mean": 67.09677419354838,
        "bootstrap_ci": [59.35483870967741, 74.83870967741936],
        "policy_sha256": "3e9042f706f374977a9aec3d61436ee0ec27027e9811c8c3effaf1f4cb5d3a92",
    },
}


def test_benchmark_fingerprints_pinned(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import workloads

        assert set(workloads.WORKLOADS) == set(PINNED_FINGERPRINTS)
        for name, workload in workloads.WORKLOADS.items():
            work = tmp_path / name
            work.mkdir()
            ctx = workloads.Context(PERFBENCH.parent, work, 0)
            rep = workload.rep(ctx, workload.setup(ctx, 0), 0, None, None)
            assert rep.fingerprint == PINNED_FINGERPRINTS[name], name
    finally:
        for name in ("speed", "tracer", "workloads"):
            sys.modules.pop(name, None)
