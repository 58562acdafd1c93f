"""Seeded random builders shared across the test modules.

Everything here takes an explicit ``random.Random`` so test runs are
reproducible; frozen expected values elsewhere in the suite rely on that.
"""

from __future__ import annotations

import random

import numpy as np

from hioaw import (
    CarParams,
    EPSILON,
    ExecutionFragment,
    FieldKind,
    FieldSlice,
    SpaceGrid,
    Trajectory,
    Valuation,
    auto_var,
    build_car,
    concat,
    point_trajectory,
    world_var,
)
from hioaw.errors import MalformedPadding
from hioaw.finite import FiniteSpec, LocationSpec, TransitionSpec, build_finite
from hioaw.refinement import FiniteInstance
from hioaw.trajectories import IoRole

DT = 0.1
SMALL_GRID = SpaceGrid(6, 5, 1.0, (0.0, 0.0))
CAR_GRID = SpaceGrid(48, 48, 0.5, (0.0, 0.0))

SCALAR_VARS = (auto_var("pos"), auto_var("temp"), auto_var("armed"))
FIELD_VAR = world_var("beam")


def random_field(rng: random.Random, kind: FieldKind = FieldKind.REAL) -> FieldSlice:
    raw = np.array(
        [[rng.uniform(-2.0, 2.0) for _ in range(SMALL_GRID.width)] for _ in range(SMALL_GRID.height)]
    )
    if kind is FieldKind.BOOL:
        return FieldSlice(SMALL_GRID, kind, raw > 0)
    if kind is FieldKind.COUNT:
        return FieldSlice(SMALL_GRID, kind, (raw > 0).astype(np.int64))
    return FieldSlice(SMALL_GRID, kind, raw)


def region_cells(region, grid: SpaceGrid) -> set[tuple[int, int]]:
    """A region's cells as (ix, iy) pairs; the region must be sorted and distinct."""
    flat = [int(i) for i in region]
    assert flat == sorted(set(flat)), "a region lists sorted distinct cells"
    return {(i % grid.width, i // grid.width) for i in flat}


def random_sample(rng: random.Random, with_field: bool) -> Valuation:
    vals: dict[str, object] = {
        "pos": rng.uniform(-10.0, 10.0),
        "temp": rng.uniform(-3.0, 3.0),
        "armed": rng.random() < 0.5,
    }
    if with_field:
        vals["beam"] = random_field(rng)
    return Valuation(vals)


def random_trajectory(
    rng: random.Random,
    with_field: bool = False,
    min_steps: int = 0,
    max_steps: int = 8,
    closed: bool = True,
) -> Trajectory:
    steps = rng.randint(min_steps, max_steps)
    names = frozenset(SCALAR_VARS) | ({FIELD_VAR} if with_field else frozenset())
    samples = tuple(random_sample(rng, with_field) for _ in range(steps + 1))
    return Trajectory(names, DT, samples, closed=closed)


ACTION_POOL = ("alpha", "beta", "gamma")


def random_execution(
    rng: random.Random,
    with_field: bool = False,
    max_parts: int = 4,
    max_steps: int = 6,
) -> ExecutionFragment:
    parts = rng.randint(1, max_parts)
    trajs = tuple(
        random_trajectory(rng, with_field, min_steps=0, max_steps=max_steps)
        for _ in range(parts)
    )
    actions = tuple(rng.choice(ACTION_POOL) for _ in range(parts - 1))
    return ExecutionFragment(trajs, actions)


def interior_lattice_times(frag: ExecutionFragment) -> list[float]:
    """Sample instants strictly inside the domain that are not junctions."""
    junctions = set(frag.junction_offsets())
    return [
        k * frag.time_step
        for k in range(1, frag.total_steps)
        if k not in junctions
    ]


def random_cut_times(rng: random.Random, frag: ExecutionFragment, most: int = 3) -> list[float]:
    pool = interior_lattice_times(frag)
    rng.shuffle(pool)
    return sorted(pool[: rng.randint(0, min(most, len(pool)))])


def random_junction_run(
    rng: random.Random, total: int, with_field: bool = False, open_end: bool = False
) -> ExecutionFragment:
    """A run of ``total`` steps whose junctions may repeat and may sit at 0 or
    at ``total``, so zero-length pieces occur at the start, middle and end."""
    offsets = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 4)))
    if offsets and rng.random() < 0.3:  # several actions at one instant
        offsets += [rng.choice(offsets)] * rng.randint(1, 2)
        offsets.sort()
    bounds = [0, *offsets, total]
    trajs = tuple(
        random_trajectory(
            rng,
            with_field,
            min_steps=hi - lo,
            max_steps=hi - lo,
            closed=not (open_end and k == len(offsets)),
        )
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    )
    actions = tuple(rng.choice(ACTION_POOL) for _ in offsets)
    return ExecutionFragment(trajs, actions)


# -- slow reference oracles for the executions algebra ------------------------------
# These are the original rescanning and pairwise implementations, kept as the
# reference that the single-pass kernels in hioaw.executions must match exactly.


def reference_restrict(frag: ExecutionFragment, keep_actions, keep_vars) -> ExecutionFragment:
    keep_act = frozenset(keep_actions) - {EPSILON}
    projected = [tr.project(keep_vars) for tr in frag.trajectories]
    out_trajs: list[Trajectory] = []
    out_actions: list[str] = []
    cur = projected[0]
    for act, nxt in zip(frag.actions, projected[1:]):
        if act in keep_act:
            out_trajs.append(cur)
            out_actions.append(act)
            cur = nxt
        else:
            cur = concat([cur, nxt])
    out_trajs.append(cur)
    return ExecutionFragment(tuple(out_trajs), tuple(out_actions))


def reference_unpad(frag: ExecutionFragment) -> ExecutionFragment:
    internal = {v.name for v in frag.vars if v.io is IoRole.INTERNAL}
    trajs: list[Trajectory] = []
    actions: list[str] = []
    cur = frag.trajectories[0]
    for act, nxt in zip(frag.actions, frag.trajectories[1:]):
        if act == EPSILON:
            if cur.lval.project(internal) != nxt.fval.project(internal):
                raise MalformedPadding("stutter junction joins different internal states")
            cur = concat([cur, nxt])
        else:
            trajs.append(cur)
            actions.append(act)
            cur = nxt
    trajs.append(cur)
    return ExecutionFragment(tuple(trajs), tuple(actions))


def reference_align(runs) -> list[ExecutionFragment]:
    target: dict[int, int] = {}
    for r in runs:
        mult: dict[int, int] = {}
        for o in r.junction_offsets():
            mult[o] = mult.get(o, 0) + 1
        for o, m in mult.items():
            target[o] = max(target.get(o, 0), m)
    return [reference_pad_to_junctions(r, target) for r in runs]


def reference_pad_to_junctions(
    frag: ExecutionFragment, target: dict[int, int]
) -> ExecutionFragment:
    """Pad until every offset ``o`` in ``target`` has ``target[o]`` junctions."""
    dt = frag.time_step
    trajs: list[Trajectory] = list(frag.trajectories)
    actions: list[str] = list(frag.actions)

    def starts() -> list[int]:
        out, off = [], 0
        for tr in trajs:
            out.append(off)
            off += tr.steps
        return out

    for o in sorted(target):
        need = target[o]
        have = sum(1 for i, tr in enumerate(trajs[:-1]) if starts()[i] + tr.steps == o)
        if have == 0:
            st = starts()
            placed = False
            for i, tr in enumerate(trajs):
                if st[i] < o < st[i] + tr.steps:
                    local = o - st[i]
                    left = Trajectory(tr.vars, dt, tr.samples[: local + 1], closed=True)
                    right = Trajectory(tr.vars, dt, tr.samples[local:], closed=tr.closed)
                    trajs[i : i + 1] = [left, right]
                    actions.insert(i, EPSILON)
                    placed = True
                    break
            if not placed:
                if o == 0:
                    trajs.insert(0, point_trajectory(trajs[0].vars, trajs[0].fval, dt))
                    actions.insert(0, EPSILON)
                else:
                    trajs.append(point_trajectory(trajs[-1].vars, trajs[-1].lval, dt))
                    actions.append(EPSILON)
            have = 1
        while have < need:
            st = starts()
            pos = max(i for i, tr in enumerate(trajs[:-1]) if st[i] + tr.steps == o)
            pt = point_trajectory(trajs[pos + 1].vars, trajs[pos + 1].fval, dt)
            trajs.insert(pos + 1, pt)
            actions.insert(pos + 1, EPSILON)
            have += 1
    return ExecutionFragment(tuple(trajs), tuple(actions))


# -- finite-instance corpus -------------------------------------------------------


def toggler_spec(
    name: str,
    levels: tuple[float, float] = (0.0, 1.0),
    go: str = "go",
    back: str = "back",
) -> FiniteSpec:
    return FiniteSpec(
        name=name,
        locations=(
            LocationSpec("lo", (("lvl", levels[0]),)),
            LocationSpec("hi", (("lvl", levels[1]),)),
        ),
        starts=("lo",),
        transitions=(TransitionSpec("lo", go, "hi"), TransitionSpec("hi", back, "lo")),
        action_kinds=((back, "output"), (go, "output")),
    )


def random_finite_spec(
    rng: random.Random,
    name: str,
    world_beam: bool = False,
    input_actions: tuple[str, ...] = (),
) -> FiniteSpec:
    n_locs = rng.randint(2, 4)
    locs = []
    for i in range(n_locs):
        outputs = ((f"{name}_lvl", float(rng.randint(0, 3))),)
        world = ((("beam", float(rng.randint(0, 2))),) if world_beam else ())
        locs.append(LocationSpec(f"s{i}", outputs, world))
    own_actions = (f"{name}_a", f"{name}_b")
    hidden = (f"{name}_h",) if rng.random() < 0.5 else ()
    kinds = [(a, "output") for a in own_actions]
    kinds += [(h, "hidden") for h in hidden]
    kinds += [(a, "input") for a in input_actions]
    alphabet = own_actions + hidden + input_actions

    transitions = []
    for i in range(n_locs):  # a cycle keeps every location reachable
        transitions.append(
            TransitionSpec(f"s{i}", rng.choice(own_actions), f"s{(i + 1) % n_locs}")
        )
    for _ in range(rng.randint(0, 3)):
        transitions.append(
            TransitionSpec(
                f"s{rng.randrange(n_locs)}",
                rng.choice(alphabet),
                f"s{rng.randrange(n_locs)}",
            )
        )
    return FiniteSpec(
        name=name,
        locations=tuple(locs),
        starts=("s0",),
        transitions=tuple(transitions),
        action_kinds=tuple(sorted(set(kinds))),
    )


def random_finite_pair(rng: random.Random, idx: int) -> tuple[FiniteInstance, FiniteInstance]:
    """A compatible pair: namespaced actions, shared REAL 'beam' world output."""
    left = random_finite_spec(rng, f"p{idx}l", world_beam=True)
    sync: tuple[str, ...] = ()
    if rng.random() < 0.5:  # optionally listen to one of the left's outputs
        sync = (f"p{idx}l_a",)
    right = random_finite_spec(rng, f"p{idx}r", world_beam=True, input_actions=sync)
    return (
        build_finite(left, DT, SMALL_GRID),
        build_finite(right, DT, SMALL_GRID),
    )


# -- car corpus -------------------------------------------------------------------


def car_pair_params(variant: int = 0) -> tuple[CarParams, CarParams]:
    if variant == 0:
        return (
            CarParams("1", 1000.0, 2.0, 1.0, 2.0, (6.0, 12.0), 0.0),
            CarParams("2", 800.0, 2.0, 1.0, 2.0, (18.0, 12.0), np.pi),
        )
    return (
        CarParams("1", 500.0, 2.0, 1.0, 2.5, (12.0, 5.0), np.pi / 2),
        CarParams("2", 700.0, 1.5, 1.0, 2.0, (12.0, 19.0), -np.pi / 2),
    )


def car_pair(variant: int = 0, grid: SpaceGrid = CAR_GRID, dt: float = DT):
    p1, p2 = car_pair_params(variant)
    return build_car(p1, grid, dt), build_car(p2, grid, dt)


def compatible_pairs(rng: random.Random, n_finite: int = 18) -> list[tuple]:
    """The composition-test corpus: cars plus randomized finite pairs."""
    pairs: list[tuple] = [car_pair(0), car_pair(1)]
    for idx in range(n_finite):
        fa, fb = random_finite_pair(rng, idx)
        pairs.append((fa.automaton, fb.automaton))
    return pairs
