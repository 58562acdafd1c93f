"""Small finite-location automata described declaratively.

Refinement checking enumerates states, so it wants automata whose reachable
set is a handful of named locations.  This module turns a plain description
(locations, labelled transitions, per-location output levels) into an
automaton plus its state enumeration.  Outputs are constant within a
location; all dynamics come from the transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import Hioaw, SampledGenerator, TransitionRule, make_signature
from .errors import InvalidParams
from .fields import FieldKind, FieldSlice, SpaceGrid
from .refinement import DEFAULT_MENU_STEPS, FiniteInstance
from .trajectories import Valuation

ACTION_KINDS = ("input", "hidden", "output")


@dataclass(frozen=True)
class LocationSpec:
    """One location: a name plus the output levels held while in it."""

    name: str
    outputs: tuple[tuple[str, float], ...] = ()
    world_outputs: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class TransitionSpec:
    src: str
    action: str
    dst: str


@dataclass(frozen=True)
class FiniteSpec:
    name: str
    locations: tuple[LocationSpec, ...]
    starts: tuple[str, ...]
    transitions: tuple[TransitionSpec, ...] = ()
    action_kinds: tuple[tuple[str, str], ...] = ()
    menu_steps: tuple[int, ...] = DEFAULT_MENU_STEPS

    def location(self, name: str) -> LocationSpec:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise InvalidParams(f"{self.name}: unknown location {name!r}")


def _check_spec(spec: FiniteSpec) -> None:
    names = [loc.name for loc in spec.locations]
    if not names:
        raise InvalidParams(f"{spec.name}: needs at least one location")
    if len(set(names)) != len(names):
        raise InvalidParams(f"{spec.name}: duplicate location names")
    if not spec.starts:
        raise InvalidParams(f"{spec.name}: needs at least one start location")
    for s in spec.starts:
        if s not in names:
            raise InvalidParams(f"{spec.name}: start {s!r} is not a location")
    kinds = dict(spec.action_kinds)
    for act, kind in kinds.items():
        if kind not in ACTION_KINDS:
            raise InvalidParams(f"{spec.name}: action {act!r} has unknown kind {kind!r}")
    for t in spec.transitions:
        if t.src not in names or t.dst not in names:
            raise InvalidParams(
                f"{spec.name}: transition {t.src}-{t.action}->{t.dst} uses unknown locations"
            )
        if t.action not in kinds:
            raise InvalidParams(f"{spec.name}: transition action {t.action!r} has no declared kind")
    # Output levels must be declared uniformly, else the output map would
    # change shape between locations.
    out_names = {n for loc in spec.locations for n, _ in loc.outputs}
    world_names = {n for loc in spec.locations for n, _ in loc.world_outputs}
    for loc in spec.locations:
        if {n for n, _ in loc.outputs} != out_names:
            raise InvalidParams(f"{spec.name}: location {loc.name} missing output levels")
        if {n for n, _ in loc.world_outputs} != world_names:
            raise InvalidParams(f"{spec.name}: location {loc.name} missing world output levels")


def build_finite(
    spec: FiniteSpec,
    time_step: float,
    grid: SpaceGrid | None = None,
) -> FiniteInstance:
    """Build the automaton and wrap it with its full state enumeration."""
    _check_spec(spec)
    loc_var = f"{spec.name}_loc"
    kinds = dict(spec.action_kinds)
    out_names = sorted({n for loc in spec.locations for n, _ in loc.outputs})
    world_names = sorted({n for loc in spec.locations for n, _ in loc.world_outputs})
    if world_names and grid is None:
        raise InvalidParams(f"{spec.name}: world outputs need a grid")

    sig = make_signature(
        world_out=world_names,
        auto_internal=[loc_var],
        auto_out=out_names,
        actions_in=[a for a, k in kinds.items() if k == "input"],
        actions_hidden=[a for a, k in kinds.items() if k == "hidden"],
        actions_out=[a for a, k in kinds.items() if k == "output"],
    )

    location_names = tuple(loc.name for loc in spec.locations)
    # One constant output valuation per location, built once so re-runs reuse
    # the identical field objects.
    out_table: dict[str, Valuation] = {}
    for loc in spec.locations:
        vals: dict[str, object] = {n: float(level) for n, level in loc.outputs}
        for n, level in loc.world_outputs:
            assert grid is not None
            vals[n] = FieldSlice(grid, FieldKind.REAL, np.full(grid.shape, float(level)))
        out_table[loc.name] = Valuation(vals)

    def state_pred(x: Valuation) -> bool:
        return set(x.keys()) == {loc_var} and x[loc_var] in location_names

    def make_rule(t: TransitionSpec, priority: int | None) -> TransitionRule:
        return TransitionRule(
            t.action,
            guard=lambda x, u, src=t.src: x[loc_var] == src,
            effect=lambda x, dst=t.dst: x.assoc(**{loc_var: dst}),
            urgent=False,
            priority=priority,
        )

    rules = []
    counters: dict[tuple[str, str], int] = {}
    for t in spec.transitions:
        key = (t.src, t.action)
        counters[key] = counters.get(key, 0) + 1
        # Distinct priorities keep same-source same-action branches resolvable
        # when stepping; checking still explores every branch.
        rules.append(make_rule(t, counters[key]))

    gen = SampledGenerator(
        flow=lambda x, u, dt: x,
        output=lambda x: out_table[x[loc_var]],
    )
    automaton = Hioaw(
        name=spec.name,
        sig=sig,
        state_pred=state_pred,
        starts=tuple(Valuation({loc_var: s}) for s in spec.starts),
        rules=tuple(rules),
        gen=gen,
        time_step=time_step,
        default_inputs=Valuation({}),
        field_specs={n: (grid, FieldKind.REAL) for n in world_names} if grid else {},
    )
    states = tuple(Valuation({loc_var: n}) for n in location_names)
    return FiniteInstance(automaton, states, spec.menu_steps)
