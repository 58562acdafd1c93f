"""Execution fragments: restriction, traces, and the stutter-padding laws."""

import random
from collections import Counter

import pytest

from corpus import (
    ACTION_POOL,
    DT,
    random_cut_times,
    random_execution,
    random_junction_run,
    random_trajectory,
    reference_align,
    reference_pad_to_junctions,
    reference_restrict,
    reference_unpad,
)
from hioaw import (
    EPSILON,
    ExecutionFragment,
    Trajectory,
    Valuation,
    align_paddings,
    auto_var,
    concat,
    executions_close,
    make_signature,
    pad,
    restrict_execution,
    trace_of,
    unpad,
)
from hioaw.errors import (
    DurationMismatch,
    GridMisaligned,
    MalformedPadding,
    TimeOutOfDomain,
    VarSetMismatch,
)
from hioaw.executions import prefix_execution

X = auto_var("x")


def ramp(values, closed=True):
    return Trajectory(
        frozenset([X]), DT, tuple(Valuation({"x": float(v)}) for v in values), closed=closed
    )


def frag_of(*pieces):
    """Build t0 a1 t1 ... from alternating ramps and action names."""
    trajs = [ramp(p) for p in pieces[::2]]
    return ExecutionFragment(tuple(trajs), tuple(pieces[1::2]))


def test_structural_validation():
    with pytest.raises(ValueError):
        ExecutionFragment((), ())
    with pytest.raises(ValueError):
        ExecutionFragment((ramp([0, 1]),), ("a",))
    with pytest.raises(VarSetMismatch):
        ExecutionFragment((ramp([0, 1]), random_trajectory(random.Random(0), True)), ("a",))
    with pytest.raises(VarSetMismatch):
        ExecutionFragment((ramp([0, 1], closed=False), ramp([2, 3])), ("a",))


def test_views_and_offsets():
    frag = frag_of([0, 1, 2], "alpha", [2, 3], "beta", [3])
    assert frag.total_steps == 3
    assert frag.duration == pytest.approx(0.3)
    assert frag.junction_offsets() == [2, 3]
    assert frag.fval == Valuation({"x": 0.0})
    assert frag.lval == Valuation({"x": 3.0})
    assert not frag.is_padded


def test_restrict_erases_junctions_keeping_earlier_value():
    # the dropped action had disagreeing endpoint samples; earlier one wins
    frag = frag_of([0, 1], "drop", [99, 2], "keep", [2, 3])
    out = restrict_execution(frag, ["keep"], ["x"])
    assert out.actions == ("keep",)
    assert tuple(s["x"] for s in out.trajectories[0].samples) == (0.0, 1.0, 2.0)
    assert tuple(s["x"] for s in out.trajectories[1].samples) == (2.0, 3.0)


def test_trace_of_keeps_external_interface_only():
    sig = make_signature(
        auto_in=["pos"],
        auto_internal=["temp", "armed"],
        actions_in=["alpha"],
        actions_out=["beta"],
        actions_hidden=["gamma"],
    )
    rng = random.Random(5)
    frag = random_execution(rng, with_field=False, max_parts=4)
    tr = trace_of(frag, sig)
    assert set(a for a in tr.actions) <= {"alpha", "beta"}
    assert all(set(s.keys()) == {"pos"} for t in tr.trajectories for s in t.samples)
    assert tr.total_steps == frag.total_steps


def test_prefix_execution_frozen():
    frag = frag_of([0, 1, 2], "alpha", [2, 3], "beta", [3, 4])
    pre = prefix_execution(frag, 1, 1)
    assert pre.actions == ("alpha",)
    assert tuple(s["x"] for s in pre.trajectories[-1].samples) == (2.0, 3.0)
    assert prefix_execution(frag, 0, 0).total_steps == 0
    with pytest.raises(TimeOutOfDomain):
        prefix_execution(frag, 1, 5)
    with pytest.raises(TimeOutOfDomain):
        prefix_execution(frag, 7, 0)


# -- padding ----------------------------------------------------------------------


def test_pad_splits_and_unpad_restores_frozen():
    frag = frag_of([0, 1, 2, 3], "alpha", [3, 4])
    padded = pad(frag, [0.1, 0.2])
    assert padded.actions == (EPSILON, EPSILON, "alpha")
    assert [tr.steps for tr in padded.trajectories] == [1, 1, 1, 1]
    assert padded.is_padded
    assert unpad(padded) == frag
    assert padded.total_steps == frag.total_steps


def test_pad_rejects_bad_cuts():
    frag = frag_of([0, 1, 2, 3], "alpha", [3, 4])
    with pytest.raises(GridMisaligned):
        pad(frag, [0.15])
    with pytest.raises(GridMisaligned):
        pad(frag, [0.1, 0.1])
    with pytest.raises(GridMisaligned):
        pad(frag, [0.3])  # existing junction
    with pytest.raises(GridMisaligned):
        pad(frag, [0.0])  # domain boundary
    with pytest.raises(TimeOutOfDomain):
        pad(frag, [0.7])


def test_unpad_rejects_state_changing_stutters():
    bad = ExecutionFragment((ramp([0, 1]), ramp([9, 9])), (EPSILON,))
    with pytest.raises(MalformedPadding):
        unpad(bad)


def test_padding_laws_randomized():
    rng = random.Random(99)
    sig = make_signature(
        auto_internal=["pos", "temp", "armed"],
        actions_out=["alpha", "beta"],
        actions_hidden=["gamma"],
    )
    for _ in range(200):
        frag = random_execution(rng, with_field=rng.random() < 0.25)
        cuts = random_cut_times(rng, frag)
        if not cuts:
            continue
        padded = pad(frag, cuts)
        # unpad is a left inverse of pad
        assert unpad(padded) == frag
        # padding is invisible to traces and to any restriction
        assert trace_of(padded, sig) == trace_of(frag, sig)
        keep = rng.sample(["alpha", "beta", "gamma"], 2)
        assert restrict_execution(padded, keep, ["pos", "armed"]) == restrict_execution(
            frag, keep, ["pos", "armed"]
        )


def test_prefix_of_padding_is_padding_of_prefix():
    rng = random.Random(31)
    hits = 0
    for _ in range(120):
        frag = random_execution(rng)
        cuts = random_cut_times(rng, frag)
        if not cuts:
            continue
        padded = pad(frag, cuts)
        i = rng.randrange(len(padded.trajectories))
        k = rng.randint(0, padded.trajectories[i].steps)
        candidate = unpad(prefix_execution(padded, i, k))
        matches = any(
            executions_close(candidate, prefix_execution(frag, j, l))
            for j in range(len(frag.trajectories))
            for l in range(frag.trajectories[j].steps + 1)
        )
        assert matches
        hits += 1
    assert hits > 60


def test_align_paddings_equalizes_shapes():
    a = frag_of([0, 1, 2, 3, 4], "alpha", [4, 5, 6])
    b = frag_of([7, 8], "beta", [8, 9, 10, 11], "alpha", [11, 12, 13])
    out_a, out_b = align_paddings([a, b])
    assert [t.steps for t in out_a.trajectories] == [t.steps for t in out_b.trajectories]
    assert unpad(out_a) == a
    assert unpad(out_b) == b


def test_align_handles_simultaneous_actions():
    # two actions at step 2 in `a` force a zero-length piece in `b`
    point = ramp([2])
    a = ExecutionFragment((ramp([0, 1, 2]), point, ramp([2, 3])), ("alpha", "beta"))
    b = frag_of([5, 6, 7, 8])
    out_a, out_b = align_paddings([a, b])
    shapes = [t.steps for t in out_b.trajectories]
    assert [t.steps for t in out_a.trajectories] == shapes == [2, 0, 1]
    assert out_b.actions == (EPSILON, EPSILON)
    assert unpad(out_b) == b


def test_align_pads_at_domain_ends_when_needed():
    point = ramp([0])
    a = ExecutionFragment((point, ramp([0, 1, 2])), ("alpha",))
    b = frag_of([5, 6, 7])
    out_a, out_b = align_paddings([a, b])
    shapes = [t.steps for t in out_b.trajectories]
    assert [t.steps for t in out_a.trajectories] == shapes == [0, 2]
    assert out_b.trajectories[0].fval == b.fval


def test_align_paddings_randomized():
    rng = random.Random(17)
    for _ in range(100):
        total = rng.randint(0, 10)
        runs = [random_junction_run(rng, total) for _ in range(rng.randint(2, 4))]
        aligned = align_paddings(runs)
        shapes = [[t.steps for t in r.trajectories] for r in aligned]
        assert all(s == shapes[0] for s in shapes)
        for original, padded in zip(runs, aligned):
            assert unpad(padded) == original


def test_executions_algebra_matches_reference_oracles():
    # the single-pass kernels against the original rescanning and pairwise code
    rng = random.Random(23)
    branches = set()
    for _ in range(400):
        total = rng.randint(0, 8)
        with_field = rng.random() < 0.2
        runs = [
            random_junction_run(rng, total, with_field, open_end=rng.random() < 0.15)
            for _ in range(rng.randint(1, 4))
        ]
        try:
            expected = reference_align(runs)
        except TimeOutOfDomain:  # an open run asked for a stutter at its end
            with pytest.raises(DurationMismatch):
                align_paddings(runs)
            branches.add("open end")
            continue
        aligned = align_paddings(runs)
        assert aligned == expected
        for run, padded in zip(runs, aligned):
            have = Counter(run.junction_offsets())
            added = Counter(padded.junction_offsets()) - have
            if added[0] and not have[0]:
                branches.add("start")
            if total and added[total] and not have[total]:
                branches.add("end")
            if any(have[o] or n > 1 for o, n in added.items()):
                branches.add("several")
            assert unpad(padded) == reference_unpad(padded) == run
            keep = rng.sample([*ACTION_POOL, EPSILON], rng.randint(0, 4))
            names = rng.sample(["pos", "temp", "armed", "beam"], rng.randint(1, 4))
            assert restrict_execution(padded, keep, names) == reference_restrict(
                padded, keep, names
            )
            cuts = random_cut_times(rng, run, most=4)
            offsets = {round(t / DT): 1 for t in cuts}
            assert pad(run, cuts) == reference_pad_to_junctions(run, offsets)
            # stutters between random samples mostly change the internal state
            stuttered = ExecutionFragment(
                run.trajectories, tuple(rng.choice([EPSILON, a]) for a in run.actions)
            )
            try:
                want = reference_unpad(stuttered)
            except MalformedPadding:
                with pytest.raises(MalformedPadding):
                    unpad(stuttered)
            else:
                assert unpad(stuttered) == want
    assert branches == {"open end", "start", "end", "several"}


def test_align_rejects_an_open_run_needing_a_final_stutter():
    a = ExecutionFragment((ramp([0, 1, 2]), ramp([5])), ("go",))
    b = ExecutionFragment((ramp([0, 1, 2], closed=False),), ())
    with pytest.raises(DurationMismatch, match="run 1 is open"):
        align_paddings([a, b])
    # with a junction of its own at the end, an open run takes more stutters
    a2 = ExecutionFragment((ramp([0, 1, 2]), ramp([5]), ramp([5])), ("go", "go"))
    c = ExecutionFragment((ramp([0, 1, 2]), ramp([7], closed=False)), ("stop",))
    out_a, out_c = align_paddings([a2, c])
    assert out_c.actions == ("stop", EPSILON)
    assert [t.steps for t in out_a.trajectories] == [t.steps for t in out_c.trajectories]
    assert unpad(out_c) == c


def test_thousand_stutters_round_trip():
    # one concat per run of erased junctions; pairwise joins took seconds here
    frag = ExecutionFragment((ramp(range(1002), closed=False),), ())
    padded = pad(frag, [k * DT for k in range(1, 1001)])
    assert len(padded.actions) == 1000
    assert unpad(padded) == frag
    assert restrict_execution(padded, (), ["x"]) == frag


def test_align_rejects_mismatched_runs():
    with pytest.raises(DurationMismatch):
        align_paddings([frag_of([0, 1]), frag_of([0, 1, 2])])
    assert align_paddings([]) == []
