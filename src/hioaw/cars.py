"""Two vehicles that communicate only through the terrain.

Each car paints the ground it covers and presses it down; each car senses, in
a ring around itself (its own footprint excluded), the paint and the
accumulated deformation written by everyone.  Seeing paint means another
vehicle is close: stop.  Seeing deformation means somebody has driven here:
slow down.  Neither car ever reads the other's state; the coordination is
carried entirely by the two shared world outputs.

The module builds single cars, their closed two-car world, and a geometric
supervisor oracle used to cross-check when the painted-ground rule fires.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .automaton import Hioaw, SampledGenerator, make_signature
from .composition import compose
from .errors import InvalidParams
from .executions import ExecutionFragment
from .fields import (
    FieldKind,
    FieldSlice,
    Region,
    SpaceGrid,
    footprint,
    neighborhood,
    occupancy_field,
    pressure_field,
    slice_exists,
)
from .automaton import Scheduler, TransitionRule
from .trajectories import Valuation

SPEED_FULL = 1.0
SPEED_SLOW = 0.5

# Shared world variable names: what a car writes and what it senses.
PRESSURE = "pressure"
PAINT = "paint"
GROUND = "ground"
COLOR = "color"


@dataclass(frozen=True)
class CarParams:
    """Geometry and placement of one car.

    ``label`` suffixes the car's private variable and action names so two
    cars can live in one composite.
    """

    label: str
    mass: float
    length: float
    width: float
    sense_radius: float
    start: tuple[float, float]
    heading: float

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise InvalidParams("mass must be positive")
        if self.length <= 0.0 or self.width <= 0.0:
            raise InvalidParams("car dimensions must be positive")
        if self.sense_radius <= self.semi_diagonal:
            raise InvalidParams(
                f"sense radius {self.sense_radius} must exceed the footprint "
                f"semi-diagonal {self.semi_diagonal:.3f}"
            )

    @property
    def semi_diagonal(self) -> float:
        return math.hypot(self.length, self.width) / 2.0

    def var(self, base: str) -> str:
        return f"{base}_{self.label}" if self.label else base


def car_start_state(params: CarParams) -> Valuation:
    v = params.var
    return Valuation(
        {
            v("pos_x"): float(params.start[0]),
            v("pos_y"): float(params.start[1]),
            v("heading"): float(params.heading),
            v("mass"): float(params.mass),
            v("radius"): float(params.sense_radius),
            v("stop"): False,
            v("slow"): False,
            v("speed"): SPEED_FULL,
        }
    )


def build_car(params: CarParams, grid: SpaceGrid, time_step: float) -> Hioaw:
    """One car as an automaton.

    World inputs: the boolean deformation layer and the paint layer it
    senses.  World outputs: the pressure and paint layers it writes.  The
    hidden ``collision`` action latches a stop when sensed paint enters the
    ring; the hidden ``level`` action latches slow speed when deformation
    does.
    """
    if params.sense_radius <= params.semi_diagonal + SPEED_FULL * time_step:
        warnings.warn(
            f"car {params.label or '?'}: sense radius {params.sense_radius} "
            "barely exceeds the footprint; one motion step may overshoot it",
            stacklevel=2,
        )
    v = params.var
    px, py, hd = v("pos_x"), v("pos_y"), v("heading")
    mass_n, rad_n = v("mass"), v("radius")
    stop_n, slow_n, speed_n = v("stop"), v("slow"), v("speed")

    sig = make_signature(
        world_in=[GROUND, COLOR],
        world_out=[PRESSURE, PAINT],
        auto_internal=[px, py, hd, mass_n, rad_n, stop_n, slow_n, speed_n],
        actions_hidden=[v("collision"), v("level")],
    )

    # The last pose's cells: a stopped car repeats its pose, and the guards
    # ask for the ring of the pose whose outputs were just written.
    memo: list = [None, None]

    def geometry(x: Valuation) -> tuple[Region, Region]:
        key = (x[hd], x[px], x[py], x[rad_n])
        if memo[0] != key:
            fp = footprint(key[0], (key[1], key[2]), params.length, params.width, grid)
            memo[:] = [key, (fp, neighborhood((key[1], key[2]), key[3], fp, grid))]
        return memo[1]

    def speed_of(x: Valuation) -> float:
        if x[stop_n]:
            return 0.0
        if x[slow_n]:
            return SPEED_SLOW
        return SPEED_FULL

    def settle(x: Valuation) -> Valuation:
        s = speed_of(x)
        return x if x[speed_n] == s else x.assoc(**{speed_n: s})

    def flow(x: Valuation, u: Valuation, dt: float) -> Valuation:
        s = x[speed_n]
        return x.assoc(
            **{
                px: x[px] + s * math.cos(x[hd]) * dt,
                py: x[py] + s * math.sin(x[hd]) * dt,
            }
        )

    def output(x: Valuation) -> Valuation:
        fp, _ring = geometry(x)
        return Valuation(
            {
                PRESSURE: pressure_field(x[mass_n], fp, grid),
                PAINT: occupancy_field(fp, grid),
            }
        )

    def sees_paint(x: Valuation, u: Valuation) -> bool:
        _fp, ring = geometry(x)
        return slice_exists(u[COLOR], ring, lambda c: c > 0)

    def sees_deformation(x: Valuation, u: Valuation) -> bool:
        _fp, ring = geometry(x)
        return slice_exists(u[GROUND], ring, lambda g: g)

    rules = (
        TransitionRule(
            v("collision"),
            guard=sees_paint,
            effect=lambda x: x.assoc(**{stop_n: True}),
            urgent=True,
        ),
        TransitionRule(
            v("level"),
            guard=sees_deformation,
            effect=lambda x: x.assoc(**{slow_n: True}),
            urgent=True,
        ),
    )

    internal_names = {px, py, hd, mass_n, rad_n, stop_n, slow_n, speed_n}

    def state_pred(x: Valuation) -> bool:
        if set(x.keys()) != internal_names:
            return False
        if not all(isinstance(x[n], float) for n in (px, py, hd, mass_n, rad_n)):
            return False
        if not all(isinstance(x[n], bool) for n in (stop_n, slow_n)):
            return False
        return x[speed_n] == speed_of(x)

    default_inputs = Valuation(
        {
            GROUND: FieldSlice.zeros(grid, FieldKind.BOOL),
            COLOR: FieldSlice.zeros(grid, FieldKind.COUNT),
        }
    )
    specs = {
        GROUND: (grid, FieldKind.BOOL),
        COLOR: (grid, FieldKind.COUNT),
        PRESSURE: (grid, FieldKind.REAL),
        PAINT: (grid, FieldKind.COUNT),
    }
    return Hioaw(
        name=f"car{('_' + params.label) if params.label else ''}",
        sig=sig,
        state_pred=state_pred,
        starts=(car_start_state(params),),
        rules=rules,
        gen=SampledGenerator(flow, output, settle),
        time_step=time_step,
        default_inputs=default_inputs,
        field_specs=specs,
    )


class GroundEnvironment:
    """Closes the world around an automaton writing pressure and paint.

    The sensed color is the written paint layer itself; the sensed ground
    layer is the latch of every cell whose pressure ever exceeded the
    threshold.  The latch is per run: :meth:`reset` clears it, and
    ``execute`` calls it before the first observation.
    """

    def __init__(self, grid: SpaceGrid, threshold: float = 0.0):
        if not threshold >= 0.0:
            raise InvalidParams("ground threshold must be nonnegative")
        self.grid = grid
        self.threshold = threshold
        self.reset()

    def reset(self) -> None:
        self.ground = FieldSlice.zeros(self.grid, FieldKind.BOOL)

    def observe(self, t: float, outputs: Valuation) -> Valuation:
        pressure: FieldSlice = outputs[PRESSURE]  # type: ignore[assignment]
        paint: FieldSlice = outputs[PAINT]  # type: ignore[assignment]
        pressed = pressure.index[pressure.data > self.threshold]
        deformed = np.union1d(self.ground.index, pressed)
        if deformed.size > self.ground.index.size:
            self.ground = FieldSlice.from_cells(self.grid, FieldKind.BOOL, deformed, True)
        return Valuation({GROUND: self.ground, COLOR: paint})


@dataclass
class TwoCarWorld:
    """A closed two-car system ready to run."""

    composite: Hioaw
    cars: tuple[Hioaw, Hioaw]
    params: tuple[CarParams, CarParams]
    grid: SpaceGrid
    threshold: float = 0.0

    def run(self, horizon: float, scheduler: Scheduler | None = None) -> ExecutionFragment:
        env = GroundEnvironment(self.grid, self.threshold)
        return self.composite.execute(env, horizon, scheduler)


def build_two_car_world(
    params1: CarParams,
    params2: CarParams,
    grid: SpaceGrid,
    time_step: float,
    threshold: float = 0.0,
) -> TwoCarWorld:
    """Compose two cars over one grid and close the world around them."""
    if params1.label == params2.label:
        raise InvalidParams("the two cars need distinct labels")
    car1 = build_car(params1, grid, time_step)
    car2 = build_car(params2, grid, time_step)
    comp = compose(car1, car2)
    return TwoCarWorld(comp, (car1, car2), (params1, params2), grid, threshold)


# -- supervisor oracle -----------------------------------------------------------


def supervisor_oracle(
    pose1: tuple[float, float, float],
    params1: CarParams,
    pose2: tuple[float, float, float],
    params2: CarParams,
    grid: SpaceGrid,
) -> tuple[bool, bool]:
    """Ground-truth collision risk from poses alone.

    A car is at risk exactly when the other car's footprint intersects its
    sensing ring.  Poses are (x, y, heading).  This bypasses the world
    variables entirely, which is the point: it is the explicit-supervisor
    answer the implicit mechanism must reproduce step for step.
    """
    fp1 = footprint(pose1[2], (pose1[0], pose1[1]), params1.length, params1.width, grid)
    fp2 = footprint(pose2[2], (pose2[0], pose2[1]), params2.length, params2.width, grid)
    ring1 = neighborhood((pose1[0], pose1[1]), params1.sense_radius, fp1, grid)
    ring2 = neighborhood((pose2[0], pose2[1]), params2.sense_radius, fp2, grid)
    return (
        bool(np.intersect1d(ring1, fp2, assume_unique=True).size),
        bool(np.intersect1d(ring2, fp1, assume_unique=True).size),
    )


def first_risk_steps(
    frag: ExecutionFragment,
    params1: CarParams,
    params2: CarParams,
    grid: SpaceGrid,
) -> tuple[int | None, int | None]:
    """First sample step at which the oracle reports risk, per car.

    Poses are read back from the execution's own samples, so this replays the
    run's geometry without touching the field pipeline.
    """
    v1, v2 = params1.var, params2.var
    first1: int | None = None
    first2: int | None = None
    offset = 0
    seen: set[int] = set()
    for traj in frag.trajectories:
        for i, s in enumerate(traj.samples):
            step = offset + i
            if step in seen:
                continue
            seen.add(step)
            pose1 = (s[v1("pos_x")], s[v1("pos_y")], s[v1("heading")])
            pose2 = (s[v2("pos_x")], s[v2("pos_y")], s[v2("heading")])
            r1, r2 = supervisor_oracle(pose1, params1, pose2, params2, grid)
            if r1 and first1 is None:
                first1 = step
            if r2 and first2 is None:
                first2 = step
            if first1 is not None and first2 is not None:
                return first1, first2
        offset += traj.steps
    return first1, first2


def first_action_step(frag: ExecutionFragment, action: str) -> int | None:
    """Sample step at which an action first occurs in the fragment."""
    for off, act in zip(frag.junction_offsets(), frag.actions):
        if act == action:
            return off
    return None
