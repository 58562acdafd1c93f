"""The benchmark's own checks, at reduced sizes.

The traced run's counts must repeat exactly for equal inputs, since later
changes cite them as evidence; and the tracer must leave nothing behind.
Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXACT = [name for name, unit in spans.UNITS.items() if unit in spans.EXACT_UNITS]

# Counts each workload must drive above zero, so a wrapper that silently
# stopped firing cannot pass as "repeats exactly".
MOVED = {
    "two_cars": ("automaton.samples", "automaton.output.calls",
                 "fields.footprint.calls", "cli.artifact_bytes"),
    "two_cars_fine": ("automaton.samples", "automaton.output.calls",
                      "fields.footprint.calls", "cli.artifact_bytes"),
    "refine_ring": ("refinement.explored", "automaton.enabled_actions.calls",
                    "trajectories.project.calls", "trajectories.freeze.calls"),
    "junctions": ("automaton.samples", "executions.junctions",
                  "trajectories.project.calls"),
}


def _run(name: str) -> run.Run:
    work_dir = os.path.join(run.WORK, "test", name)
    ops = run.Run(workloads.WORKLOADS[name](ROOT, 3, work_dir, small=True))
    ops.setup()
    ops.wl.prepare(ops.h, ops.built)
    return ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(name):
    ops = _run(name)
    counts = []
    for _ in range(2):
        ops.setup()
        tracer = spans.Tracer(ops.h)
        ops.op(tracer)
        summary = tracer.summary(ops.wl.artifact_bytes())
        counts.append({k: summary[k] for k in EXACT})
    ops.wl.clean()
    assert ops.failed == 0
    assert counts[0] == counts[1]
    assert all(counts[0][k] > 0 for k in MOVED[name]), counts[0]
    spans.assert_clean(ops.h, *ops.built.automata.values())


def test_assert_clean_sees_wrappers():
    ops = _run("junctions")
    h = ops.h
    comp = ops.built.automata["pair"]
    tracer = spans.Tracer(h)
    try:
        tracer.instrument(comp)  # object wrappers only
        with pytest.raises(RuntimeError):
            spans.assert_clean(h, comp)
        tracer.uninstall()
        tracer.install()  # module and class wrappers only
        with pytest.raises(RuntimeError):
            spans.assert_clean(h)
    finally:
        tracer.uninstall()
    spans.assert_clean(h, comp)
    assert h.cars.footprint is h.fields.footprint


def test_end_to_end_gauges_every_op():
    ops = _run("refine_ring")
    record = {}
    values = run.end_to_end(ops, 0.0, record)
    ops.wl.clean()
    assert ops.failed == 0
    assert set(values) == set(run.E2E_UNITS)
    assert len(ops.ref_times) == record["wall_s"]["n"] >= run.MIN_OPS
    assert all(t > 0 for t in ops.ref_times)
    assert values["wall_over_ref"] == record["wall_over_ref"]["median"] > 0
