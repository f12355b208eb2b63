"""The benchmark's tracer (perfbench/) wraps archex functions and methods by
name, such as ``explore.merge_results``, ``Demonstration.snapshot_at`` and
``selection.neigh_subscore``. A rename that breaks a traced benchmark run
fails here too."""

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
