"""Two traced passes over one seed's inputs must count exactly the same work.

    python3 -m pytest perfbench/test_trace_counts.py
"""

import shutil
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_counts(main, workload):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = run.run_pass(main, workload.jobs, workload.limit_s, tracer)
    finally:
        tracer.uninstall()
    assert not any("limit" in (o.failure or "") for o in outcomes)
    metrics = tracer.layer_metrics()
    return {name: metrics[name] for name in tracing.DETERMINISTIC_COUNTS}


# The counters of the layers each workload's own jobs reach; the others read 0.
ACTIVE_COUNTS = {
    "decompose": (
        "partitions.atom_pairs",
        "partitions.atoms_distinct",
        "partitions.lattice_elements",
        "decompositions.pairs_scanned",
        "decompositions.entries",
        "decompositions.redundant_entries",
    ),
    "oracle": ("oracle.candidates_examined", "automata.product_triples"),
    "large": (
        "partitions.atom_pairs",
        "partitions.atoms_distinct",
        "partitions.lattice_elements",
        "automata.product_triples",
    ),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    from dfadecomp.cli import main

    workdir = run.OUT / f"test-{name}"
    workload = workloads.WORKLOADS[name](7, workdir)
    workloads.write_files(workload, workdir)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        first = _traced_counts(main, workload)
        second = _traced_counts(main, workload)
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
    assert first == second
    assert all(first[counter] > 0 for counter in ACTIVE_COUNTS[name]), first
