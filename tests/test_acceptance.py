"""Acceptance suite: the six shipped guarantees, end to end.

Each test prints exactly one ``[acceptance] ... PASS/FAIL`` line past the
capture plugin so a plain pytest run doubles as the acceptance report, and
each asserts its own wall-clock budget.
"""

import math
import os
import random
import time

import numpy as np

from corpus import (
    DT,
    SMALL_GRID,
    compatible_pairs,
    random_cut_times,
    random_execution,
    random_finite_pair,
    random_sample,
    random_trajectory,
    region_cells,
)
from hioaw import (
    CarParams,
    ExecutionFragment,
    RandomScheduler,
    SpaceGrid,
    Trajectory,
    align_paddings,
    build_two_car_world,
    check_simulation,
    check_trace_inclusion,
    compose,
    concat,
    decompose_execution,
    finite_compose,
    first_action_step,
    first_risk_steps,
    footprint,
    make_signature,
    pad,
    product_relation,
    project_trace,
    restrict_execution,
    shared_world_outputs,
    simulation_implies_inclusion_check,
    trace_of,
    trajectories_close,
    unpad,
    verify_decomposition,
)
from hioaw.cars import PAINT, PRESSURE
from hioaw.cli import main
from hioaw.trajectories import names_of
from test_cli import read_tree
from test_composition import merge_trajectories, replay_padded, run_composite
from test_refinement import (
    branchy_spec,
    chain_spec,
    dead_spec,
    detour_spec,
    flip_spec,
    holds,
    inst,
    loc_rel,
    partner,
)

SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "two_cars.ini")


def timed(capsys, label, budget, body):
    """Run one criterion, print its report line, re-raise any failure."""
    start = time.perf_counter()
    err: BaseException | None = None
    detail = ""
    try:
        detail = body()
    except BaseException as exc:  # report FAIL before propagating
        err = exc
    elapsed = time.perf_counter() - start
    ok = err is None and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    why = detail if err is None else f"{type(err).__name__}: {err}"
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {verdict} ({why}; {elapsed:.2f}s / {budget:g}s)")
    if err is not None:
        raise err
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget:g}s"


def follow_on(rng, tau, with_field):
    """A random continuation whose first sample is ``tau``'s last."""
    steps = rng.randint(0, 4)
    samples = (tau.lval, *(random_sample(rng, with_field) for _ in range(steps)))
    return Trajectory(tau.vars, DT, samples, closed=True)


def test_trajectory_algebra_laws(capsys):
    def body():
        rng = random.Random(101)
        cases = 0
        for case in range(1000):
            with_field = case % 4 == 0
            tau = random_trajectory(rng, with_field, min_steps=1, max_steps=8)
            keep = rng.sample(sorted(names_of(tau.vars)), rng.randint(1, len(tau.vars)))
            t = rng.randint(0, tau.steps) * DT

            # projection commutes with prefix, suffix, and windowing
            assert tau.prefix(t).project(keep) == tau.project(keep).prefix(t)
            assert tau.suffix(t).project(keep) == tau.project(keep).suffix(t)
            lo = rng.randint(0, round(t / DT)) * DT
            assert tau.restrict(lo, t).project(keep) == tau.project(keep).restrict(lo, t)

            # splitting anywhere and concatenating restores the trajectory
            assert concat([tau.prefix(t), tau.suffix(t)]) == tau

            # projection distributes over concatenation; prefix/suffix at the
            # junction recover the legs
            follow = follow_on(rng, tau, with_field)
            whole = concat([tau, follow])
            assert whole.project(keep) == concat(
                [tau.project(keep), follow.project(keep)]
            )
            assert whole.prefix(tau.duration) == tau
            assert whole.suffix(tau.duration) == follow
            cases += 1
        return f"{cases} randomized cases, exact equality"

    timed(capsys, "1 trajectory-algebra laws", 5.0, body)


def test_stutter_padding_laws(capsys):
    def body():
        rng = random.Random(202)
        sig = make_signature(
            auto_internal=["pos", "temp", "armed"],
            actions_out=["alpha", "beta"],
            actions_hidden=["gamma"],
        )
        checked = 0
        while checked < 500:
            with_field = rng.random() < 0.25
            frag = random_execution(rng, with_field=with_field)
            cuts = random_cut_times(rng, frag)
            if not cuts:
                continue
            padded = pad(frag, cuts)

            # unpad is a left inverse of pad
            assert unpad(padded) == frag
            # padding never shows in the trace
            assert trace_of(padded, sig) == trace_of(frag, sig)
            # nor in any restriction
            keep = rng.sample(["alpha", "beta", "gamma"], 2)
            assert restrict_execution(padded, keep, ["pos", "armed"]) == (
                restrict_execution(frag, keep, ["pos", "armed"])
            )

            # differently padded copies align to equal per-index shapes
            other_cuts = random_cut_times(rng, frag)
            variants = [padded, pad(frag, other_cuts) if other_cuts else frag]
            aligned = align_paddings(variants)
            shapes = [[t.steps for t in run.trajectories] for run in aligned]
            assert shapes[0] == shapes[1]
            for out in aligned:
                assert unpad(out) == frag
            checked += 1
        return f"{checked} executions with random cut sets, exact equality"

    timed(capsys, "2 stutter-padding laws", 10.0, body)


def test_composition_closure(capsys):
    def body():
        rng = random.Random(303)
        pairs = compatible_pairs(rng, n_finite=18)
        assert len(pairs) >= 20
        probes = 0
        for i, (a, b) in enumerate(pairs):
            comp = compose(a, b)
            report = comp.validate()
            assert report.ok, f"{comp.name}: {report.findings}"
            shared = shared_world_outputs(a, b)
            for seed in (0, 1):
                frag = run_composite(comp, seed=17 * i + seed, horizon=2.4)
                ra, rb = replay_padded(a, frag), replay_padded(b, frag)
                for idx, tr in enumerate(frag.trajectories):
                    ta, tb = ra.trajectories[idx], rb.trajectories[idx]
                    assert trajectories_close(
                        tr, merge_trajectories(ta, tb, shared, tr), 1e-9
                    )
                    if tr.steps == 0:
                        continue
                    t_cut = rng.randrange(1, tr.steps + 1) * tr.time_step
                    pre = tr.prefix(t_cut)
                    assert trajectories_close(
                        pre,
                        merge_trajectories(ta.prefix(t_cut), tb.prefix(t_cut), shared, pre),
                        1e-9,
                    )
                    post = tr.suffix(t_cut)
                    assert trajectories_close(
                        post,
                        merge_trajectories(ta.suffix(t_cut), tb.suffix(t_cut), shared, post),
                        1e-9,
                    )
                    stitched = concat(
                        [
                            merge_trajectories(
                                ta.prefix(t_cut), tb.prefix(t_cut), shared, pre
                            ),
                            merge_trajectories(
                                ta.suffix(t_cut), tb.suffix(t_cut), shared, post
                            ),
                        ]
                    )
                    assert trajectories_close(tr, stitched, 1e-9)
                    probes += 3
        assert probes >= 200, f"only {probes} probes"
        return f"{len(pairs)} compatible pairs validated, {probes} slicing probes at 1e-9"

    timed(capsys, "3 composition closure", 30.0, body)


def test_decomposition_and_trace_projection(capsys):
    def body():
        rng = random.Random(404)
        pairs = compatible_pairs(rng, n_finite=18)
        runs = 0
        for i, (a, b) in enumerate(pairs):
            comp = compose(a, b)
            shared = shared_world_outputs(a, b)
            for seed in range(5):
                frag = run_composite(comp, seed=100 * i + seed, horizon=1.5)
                pa, pb = decompose_execution(comp, frag)
                # per-side equality outside the shared field (exact) and the
                # shared field as the sum of the parts (1e-9 per cell)
                assert verify_decomposition(comp, frag, pa, pb) == []
                for side, part in enumerate(comp.parts):
                    proj = project_trace(comp, frag, side)
                    keep = names_of(part.sig.external_vars) - shared
                    assert restrict_execution(
                        frag, part.sig.external_actions, keep
                    ) == restrict_execution(
                        proj.component_trace, part.sig.external_actions, keep
                    )
                runs += 1
        assert runs == 100
        return f"{runs} composite executions decomposed and projected"

    timed(capsys, "4 decomposition and trace projection", 30.0, body)


def test_refinement_checkers(capsys):
    def body():
        rng = random.Random(505)
        # identity simulation across the corpus
        instances = [
            inst(flip_spec("aid")),
            inst(flip_spec("asub", back_edge=False)),
            inst(flip_spec("ashift", levels=(0.0, 2.0))),
            inst(detour_spec("adq", 0.0)),
            inst(detour_spec("adn", 2.0)),
            inst(branchy_spec("abr")),
            inst(dead_spec("adead")),
            inst(chain_spec("ach", 4.0)),
            inst(flip_spec("awa", beams=(0.0, 1.0)), SMALL_GRID),
            inst(flip_spec("awb", beams=(0.5, 1.5)), SMALL_GRID),
            *random_finite_pair(rng, 90),
            *random_finite_pair(rng, 91),
            *random_finite_pair(rng, 92),
        ]
        for fi in instances:
            assert check_simulation(fi, fi, fi.identity_relation()).holds

        # known-verdict pairs, both directions
        base = inst(flip_spec("base"))
        table = [
            (inst(flip_spec("copy")), base, True, True),
            (inst(detour_spec("deq", 0.0)), base, True, True),
            (inst(detour_spec("dno", 2.0)), base, False, True),
            (inst(flip_spec("sub", back_edge=False)), base, True, False),
            (inst(flip_spec("shift", levels=(0.0, 2.0))), base, False, False),
            (inst(branchy_spec("br")), base, True, True),
            (inst(dead_spec("dead")), base, True, False),
            (
                inst(flip_spec("wa", beams=(0.0, 1.0)), SMALL_GRID),
                inst(flip_spec("wb", beams=(0.0, 1.0)), SMALL_GRID),
                True,
                True,
            ),
            (
                inst(flip_spec("wo", beams=(0.0, 2.0)), SMALL_GRID),
                inst(flip_spec("wb2", beams=(0.0, 1.0)), SMALL_GRID),
                False,
                False,
            ),
            (
                inst(flip_spec("wt", beams=(0.0, 1.0 + 5e-10)), SMALL_GRID),
                inst(flip_spec("wb3", beams=(0.0, 1.0)), SMALL_GRID),
                True,
                True,
            ),
        ]
        assert len(table) >= 10
        for a, b, fwd, bwd in table:
            assert holds(a, b) == fwd
            assert holds(b, a) == bwd

        # every verified simulation also passes bounded trace inclusion
        da, db = inst(detour_spec("cda", 0.0)), inst(flip_spec("cdb"))
        rel = loc_rel(da, db, [("lo", "lo"), ("mid", "lo"), ("hi", "hi")])
        sim_cases = [(da, db, rel)] + [
            (fi, fi, fi.identity_relation()) for fi in instances[:6]
        ]
        for a, b, r in sim_cases:
            report = simulation_implies_inclusion_check(a, b, r)
            assert report.simulation.holds
            assert report.inclusion is not None and report.inclusion.holds
            assert report.consistent

        # substitutivity: inclusion survives composition with a partner
        triples = [
            (inst(detour_spec("t1", 0.0)), base),
            (inst(flip_spec("t2", back_edge=False)), base),
            (inst(branchy_spec("t3")), base),
            (inst(dead_spec("t4")), base),
            (
                inst(flip_spec("t5", beams=(0.0, 1.0)), SMALL_GRID),
                inst(flip_spec("t6", beams=(0.0, 1.0)), SMALL_GRID),
            ),
        ]
        assert len(triples) >= 5
        for i, (a, b) in enumerate(triples):
            assert holds(a, b, depth=4)
            ctx = partner(f"actx{i}", beams=(0.5, 1.5) if i == 4 else None)
            assert holds(finite_compose(a, ctx), finite_compose(b, ctx), depth=4)

        # simulations lift to the product relation against the same partners
        for beams in (None, (0.5, 1.5)):
            ctx = partner("apc" if beams is None else "apcw", beams=beams)
            lifted = product_relation(rel, ctx)
            assert len(lifted) == len(rel) * len(ctx.states)
            assert check_simulation(
                finite_compose(da, ctx), finite_compose(db, ctx), lifted, depth=4
            ).holds
        return (
            f"{len(instances)} identity simulations, {len(table)} verdict pairs, "
            f"{len(sim_cases)} soundness reports, {len(triples)} substitutivity triples"
        )

    timed(capsys, "5 refinement checking", 60.0, body)


def test_two_car_scenario(capsys, tmp_path):
    def body():
        grid = SpaceGrid(200, 200, 0.25)
        p1 = CarParams("1", 1000.0, 2.0, 1.0, 2.0, (15.0, 25.0), 0.0)
        p2 = CarParams("2", 800.0, 2.0, 1.0, 2.0, (35.0, 25.0), math.pi)
        world = build_two_car_world(p1, p2, grid, 0.1)
        frag = world.run(20.0, RandomScheduler(world.composite, seed=0))
        v1, v2 = p1.var, p2.var

        total_mass = p1.mass + p2.mass
        samples = 0
        for traj in frag.trajectories:
            for s in traj.samples:
                # both cars stay on-grid throughout this run
                assert abs(s[PRESSURE].integral() - total_mass) <= 1e-9 * total_mass
                fp1 = footprint(
                    s[v1("heading")], (s[v1("pos_x")], s[v1("pos_y")]),
                    p1.length, p1.width, grid,
                )
                fp2 = footprint(
                    s[v2("heading")], (s[v2("pos_x")], s[v2("pos_y")]),
                    p2.length, p2.width, grid,
                )
                union = np.zeros((grid.height, grid.width), dtype=bool)
                for ix, iy in region_cells(fp1, grid) | region_cells(fp2, grid):
                    union[iy, ix] = True
                assert np.array_equal(s[PAINT].occupied(), union)
                samples += 1

        # the implicit collision actions fire exactly at the supervisor-oracle
        # risk steps
        risk1, risk2 = first_risk_steps(frag, p1, p2, grid)
        assert risk1 is not None and risk2 is not None
        assert first_action_step(frag, "collision_1") == risk1
        assert first_action_step(frag, "collision_2") == risk2

        # head-on outcome: both stopped, footprints disjoint
        last = frag.lval
        assert last[v1("speed")] == 0.0 and last[v2("speed")] == 0.0
        fp1 = footprint(
            last[v1("heading")], (last[v1("pos_x")], last[v1("pos_y")]),
            p1.length, p1.width, grid,
        )
        fp2 = footprint(
            last[v2("heading")], (last[v2("pos_x")], last[v2("pos_y")]),
            p2.length, p2.width, grid,
        )
        assert not (region_cells(fp1, grid) & region_cells(fp2, grid))

        # byte-identical reruns through the command line
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for out in (out1, out2):
            code = main(
                ["run", "--scenario", SCENARIO, "--out", out, "--seed", "0",
                 "--snapshot-times", "0,10,20"]
            )
            assert code == 0
        tree1, tree2 = read_tree(out1), read_tree(out2)
        assert tree1 and tree1 == tree2
        return (
            f"{samples} samples checked, collision at steps "
            f"({risk1}, {risk2}), {len(tree1)} artifacts byte-identical"
        )

    timed(capsys, "6 two-car scenario", 20.0, body)
