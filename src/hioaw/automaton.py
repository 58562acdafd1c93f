"""Hybrid I/O automata whose continuous behaviour is produced by sampled
trajectory generators.

An automaton declares a signature (six variable sets, three action sets), a
state predicate, explicit start states, guarded transition rules, and a
generator.  States are valuations of the internal variables.  The generator is
deterministic and memoryless: the next internal sample depends only on the
current internal sample and the current input sample, and output values are a
function of the internal state alone.  Those two properties are what make
prefixes, suffixes and concatenations of generated trajectories generated
again, and what lets a composite be replayed from its components.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .errors import (
    ActionNotEnabled,
    GridMisaligned,
    InputDomainTooShort,
    NondeterministicUnresolved,
    SchedulerDeadlock,
    TimeOutOfDomain,
)
from .executions import EPSILON, ExecutionFragment
from .fields import FieldKind, FieldSlice, SpaceGrid
from .trajectories import (
    IoRole,
    Trajectory,
    Valuation,
    VarKind,
    VarName,
    names_of,
)

# A run fires at most this many discrete actions at one time instant before
# the scheduler gives up and reports a livelock.
MAX_FIRINGS_PER_INSTANT = 64


@dataclass(frozen=True)
class Signature:
    """The variable and action interface of an automaton."""

    world_in: frozenset[VarName]
    world_internal: frozenset[VarName]
    world_out: frozenset[VarName]
    auto_in: frozenset[VarName]
    auto_internal: frozenset[VarName]
    auto_out: frozenset[VarName]
    actions_in: frozenset[str]
    actions_hidden: frozenset[str]
    actions_out: frozenset[str]

    # -- derived sets ---------------------------------------------------------

    @property
    def world_vars(self) -> frozenset[VarName]:
        return self.world_in | self.world_internal | self.world_out

    @property
    def auto_vars(self) -> frozenset[VarName]:
        return self.auto_in | self.auto_internal | self.auto_out

    @property
    def inputs(self) -> frozenset[VarName]:
        return self.world_in | self.auto_in

    @property
    def internals(self) -> frozenset[VarName]:
        return self.world_internal | self.auto_internal

    @property
    def outputs(self) -> frozenset[VarName]:
        return self.world_out | self.auto_out

    @property
    def all_vars(self) -> frozenset[VarName]:
        return self.inputs | self.internals | self.outputs

    @property
    def external_vars(self) -> frozenset[VarName]:
        return self.inputs | self.outputs

    @property
    def actions(self) -> frozenset[str]:
        return self.actions_in | self.actions_hidden | self.actions_out

    @property
    def external_actions(self) -> frozenset[str]:
        return self.actions_in | self.actions_out


def make_signature(
    *,
    world_in: Iterable[str] = (),
    world_internal: Iterable[str] = (),
    world_out: Iterable[str] = (),
    auto_in: Iterable[str] = (),
    auto_internal: Iterable[str] = (),
    auto_out: Iterable[str] = (),
    actions_in: Iterable[str] = (),
    actions_hidden: Iterable[str] = (),
    actions_out: Iterable[str] = (),
) -> Signature:
    """Build a signature from plain name strings, tagging kinds and roles."""
    w, a = VarKind.WORLD, VarKind.AUTOMATON
    return Signature(
        world_in=frozenset(VarName(n, w, IoRole.INPUT) for n in world_in),
        world_internal=frozenset(VarName(n, w, IoRole.INTERNAL) for n in world_internal),
        world_out=frozenset(VarName(n, w, IoRole.OUTPUT) for n in world_out),
        auto_in=frozenset(VarName(n, a, IoRole.INPUT) for n in auto_in),
        auto_internal=frozenset(VarName(n, a, IoRole.INTERNAL) for n in auto_internal),
        auto_out=frozenset(VarName(n, a, IoRole.OUTPUT) for n in auto_out),
        actions_in=frozenset(actions_in),
        actions_hidden=frozenset(actions_hidden),
        actions_out=frozenset(actions_out),
    )


@dataclass(frozen=True)
class TransitionRule:
    """A guarded update: ``action`` may fire in states where ``guard`` holds,
    replacing the state by ``effect(state)``.

    Guards also see the current input valuation, so an automaton can react to
    what it senses.  Urgent rules interrupt time passage as soon as they are
    enabled *and* their effect would change the state; non-urgent rules fire
    only when a scheduler or an enumeration picks them.  ``priority`` breaks
    ties between several rules for the same action (higher wins).
    """

    action: str
    guard: Callable[[Valuation, Valuation], bool]
    effect: Callable[[Valuation], Valuation]
    urgent: bool = False
    priority: int | None = None


class SampledGenerator:
    """Per-step dynamics: internal flow, state-determined outputs.

    ``flow(x, u, dt)`` returns the internal valuation one step later;
    ``output(x)`` returns the output valuation at a sample; ``settle(x)``
    re-derives dependent internal variables after a discrete effect.
    """

    def __init__(
        self,
        flow: Callable[[Valuation, Valuation, float], Valuation],
        output: Callable[[Valuation], Valuation],
        settle: Callable[[Valuation], Valuation] | None = None,
    ):
        self.flow = flow
        self.output = output
        self.settle = settle if settle is not None else lambda x: x


class Environment(Protocol):
    """Supplies input valuations during a run.

    ``observe`` is called at each sample instant with the automaton's current
    output valuation; in a closed world the inputs are derived from it.
    Implementations may keep per-run state (e.g. a latch) but must be
    deterministic; ``reset`` discards that state, and ``execute`` calls it
    before the run's first observation.
    """

    def reset(self) -> None: ...

    def observe(self, t: float, outputs: Valuation) -> Valuation: ...


class ConstantInputs:
    """Environment that always supplies the same input valuation."""

    def __init__(self, inputs: Valuation):
        self._inputs = inputs

    def reset(self) -> None:
        pass

    def observe(self, t: float, outputs: Valuation) -> Valuation:
        return self._inputs


class Scheduler(Protocol):
    """Picks which enabled action (if any) fires at the current instant."""

    def pick(
        self, t: float, state: Valuation, inputs: Valuation, enabled: Sequence[str]
    ) -> str | None: ...


class UrgentScheduler:
    """Fires the first enabled urgent action, in rule declaration order."""

    def __init__(self, automaton: "Hioaw"):
        self._urgent = {r.action for r in automaton.rules if r.urgent}

    def pick(
        self, t: float, state: Valuation, inputs: Valuation, enabled: Sequence[str]
    ) -> str | None:
        for act in enabled:
            if act in self._urgent:
                return act
        return None


class RandomScheduler:
    """Urgent actions always fire; non-urgent ones fire by seeded coin flip.

    At most one non-urgent action fires per time instant, so runs stay
    finite-fan-out and reproducible for a given seed.
    """

    def __init__(self, automaton: "Hioaw", seed: int = 0, fire_prob: float = 0.25):
        self._urgent = {r.action for r in automaton.rules if r.urgent}
        self._rng = random.Random(seed)
        self._fire_prob = fire_prob
        self._spent_at: float | None = None

    def pick(
        self, t: float, state: Valuation, inputs: Valuation, enabled: Sequence[str]
    ) -> str | None:
        for act in enabled:
            if act in self._urgent:
                return act
        if self._spent_at == t:
            return None
        candidates = [a for a in enabled if a not in self._urgent]
        if not candidates:
            return None
        self._spent_at = t
        if self._rng.random() >= self._fire_prob:
            return None
        return candidates[self._rng.randrange(len(candidates))]


@dataclass
class ValidationReport:
    automaton: str
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass(frozen=True)
class Hioaw:
    """A hybrid I/O automaton over sampled time.

    ``starts`` lists the start states explicitly; ``state_pred`` is the state
    space membership test; ``field_specs`` records grid and kind for every
    world variable so values can be checked and composed.
    """

    name: str
    sig: Signature
    state_pred: Callable[[Valuation], bool]
    starts: tuple[Valuation, ...]
    rules: tuple[TransitionRule, ...]
    gen: SampledGenerator
    time_step: float
    default_inputs: Valuation
    field_specs: Mapping[str, tuple[SpaceGrid, FieldKind]] = field(default_factory=dict)
    parts: tuple["Hioaw", "Hioaw"] | None = None

    # -- structural checks ----------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report structural problems instead of raising."""
        rep = ValidationReport(self.name)
        sig = self.sig
        groups: list[tuple[str, frozenset[VarName]]] = [
            ("world_in", sig.world_in),
            ("world_internal", sig.world_internal),
            ("world_out", sig.world_out),
            ("auto_in", sig.auto_in),
            ("auto_internal", sig.auto_internal),
            ("auto_out", sig.auto_out),
        ]
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                clash = names_of(groups[i][1]) & names_of(groups[j][1])
                if clash:
                    rep.findings.append(
                        f"variable sets {groups[i][0]} and {groups[j][0]} "
                        f"share {sorted(clash)}"
                    )
        acts = [
            ("actions_in", sig.actions_in),
            ("actions_hidden", sig.actions_hidden),
            ("actions_out", sig.actions_out),
        ]
        for i in range(len(acts)):
            for j in range(i + 1, len(acts)):
                clash = acts[i][1] & acts[j][1]
                if clash:
                    rep.findings.append(
                        f"action sets {acts[i][0]} and {acts[j][0]} share {sorted(clash)}"
                    )
        if EPSILON in sig.actions:
            rep.findings.append(f"action name {EPSILON!r} is reserved for stutters")
        for group_name, group in groups:
            want = VarKind.WORLD if group_name.startswith("world") else VarKind.AUTOMATON
            for v in group:
                if v.kind is not want:
                    rep.findings.append(f"{v.name!r} in {group_name} has kind {v.kind.value}")
        for v in sig.world_vars:
            if v.name not in self.field_specs:
                rep.findings.append(f"world variable {v.name!r} has no grid/kind spec")
        if not self.starts:
            rep.findings.append("no start states declared")
        internal_names = names_of(self.sig.internals)
        for i, x in enumerate(self.starts):
            if set(x.keys()) != internal_names:
                rep.findings.append(
                    f"start state {i} assigns {sorted(x.keys())}, internals are "
                    f"{sorted(internal_names)}"
                )
                continue
            if not self.state_pred(x):
                rep.findings.append(f"start state {i} violates the state predicate")
        for r in self.rules:
            if r.action not in self.sig.actions:
                rep.findings.append(f"rule for undeclared action {r.action!r}")
        # spot-check effects from the starts with default inputs
        for x in self.starts:
            if set(x.keys()) != internal_names:
                continue
            for r in self.rules:
                if r.action not in self.sig.actions:
                    continue
                try:
                    if r.guard(x, self.default_inputs):
                        nxt = self.gen.settle(r.effect(x))
                        if not self.state_pred(nxt):
                            rep.findings.append(
                                f"effect of {r.action!r} leaves the state space"
                            )
                except Exception as exc:  # guard/effect crash is a finding, not a crash
                    rep.findings.append(f"rule {r.action!r} raised {exc!r}")
        if not (self.time_step > 0.0):
            rep.findings.append("time_step must be positive")
        missing = names_of(self.sig.inputs) - set(self.default_inputs.keys())
        if missing:
            rep.findings.append(f"default inputs missing {sorted(missing)}")
        return rep

    # -- discrete steps ---------------------------------------------------------

    def rules_for(self, action: str) -> list[TransitionRule]:
        return [r for r in self.rules if r.action == action]

    def enabled_actions(
        self, x: Valuation, inputs: Valuation, changing_only: bool = True
    ) -> list[str]:
        """Actions with an enabled rule, in declaration order.

        With ``changing_only`` an action whose every enabled rule maps the
        state to itself is not listed; a rule that cannot change the state has
        nothing left to do and must not stall time.
        """
        seen: list[str] = []
        for r in self.rules:
            if r.action in seen:
                continue
            if r.guard(x, inputs):
                if changing_only and self.gen.settle(r.effect(x)) == x:
                    continue
                seen.append(r.action)
        return seen

    def step(self, x: Valuation, action: str, inputs: Valuation | None = None) -> Valuation:
        """Apply one discrete action; the successor state is settled.

        Raises ``ActionNotEnabled`` if no rule for the action fires, and
        ``NondeterministicUnresolved`` if several do and priorities do not
        order them.
        """
        u = inputs if inputs is not None else self.default_inputs
        fired = [r for r in self.rules_for(action) if r.guard(x, u)]
        if not fired:
            raise ActionNotEnabled(f"{action!r} is not enabled")
        if len(fired) > 1:
            prios = [r.priority for r in fired]
            if any(p is None for p in prios) or len(set(prios)) != len(prios):
                raise NondeterministicUnresolved(
                    f"{len(fired)} rules for {action!r} fire and priorities do not "
                    "order them"
                )
            fired.sort(key=lambda r: -(r.priority or 0))
        return self.gen.settle(fired[0].effect(x))

    def successors(self, x: Valuation, action: str, inputs: Valuation | None = None) -> list[Valuation]:
        """All successor states the action's enabled rules can produce."""
        u = inputs if inputs is not None else self.default_inputs
        out = []
        for r in self.rules_for(action):
            if r.guard(x, u):
                nxt = self.gen.settle(r.effect(x))
                if nxt not in out:
                    out.append(nxt)
        return out

    # -- continuous evolution ----------------------------------------------------

    def full_sample(
        self, x: Valuation, u: Valuation, outputs: Valuation | None = None
    ) -> Valuation:
        """The valuation over all declared variables at one instant.

        ``outputs``, when given, must be ``self.gen.output(x)``; passing it
        spares recomputing it.
        """
        y = self.gen.output(x) if outputs is None else outputs
        return u.project(names_of(self.sig.inputs)).merge(x).merge(y)

    def _steps_for(self, duration: float) -> int:
        k = duration / self.time_step
        rk = round(k)
        if abs(k - rk) > 1e-9:
            raise GridMisaligned(
                f"duration {duration} is not a multiple of step {self.time_step}"
            )
        if rk < 0:
            raise TimeOutOfDomain("duration must be nonnegative")
        return int(rk)

    def generate(self, x: Valuation, inputs: Trajectory, duration: float) -> Trajectory:
        """The unique trajectory of the dynamics from ``x`` under ``inputs``.

        No urgency applies here; this is the raw trajectory set.
        """
        n = self._steps_for(duration)
        if inputs.steps < n:
            raise InputDomainTooShort(
                f"inputs cover {inputs.ltime}, need {duration}"
            )
        samples = [self.full_sample(x, inputs.samples[0])]
        cur = x
        for k in range(1, n + 1):
            cur = self.gen.flow(cur, inputs.samples[k - 1], self.time_step)
            samples.append(self.full_sample(cur, inputs.samples[k]))
        return Trajectory(self.sig.all_vars, self.time_step, tuple(samples), closed=True)

    def evolve(self, x: Valuation, inputs: Trajectory, duration: float) -> Trajectory:
        """Like :meth:`generate`, but stops at the first instant an urgent
        action is enabled (with a state-changing effect)."""
        n = self._steps_for(duration)
        if inputs.steps < n:
            raise InputDomainTooShort(f"inputs cover {inputs.ltime}, need {duration}")
        urgent = [r for r in self.rules if r.urgent]

        def interrupted(state: Valuation, u: Valuation) -> bool:
            return any(
                r.guard(state, u) and self.gen.settle(r.effect(state)) != state
                for r in urgent
            )

        samples = [self.full_sample(x, inputs.samples[0])]
        cur = x
        if interrupted(cur, inputs.samples[0]):
            return Trajectory(self.sig.all_vars, self.time_step, tuple(samples), closed=True)
        for k in range(1, n + 1):
            cur = self.gen.flow(cur, inputs.samples[k - 1], self.time_step)
            samples.append(self.full_sample(cur, inputs.samples[k]))
            if interrupted(cur, inputs.samples[k]):
                break
        return Trajectory(self.sig.all_vars, self.time_step, tuple(samples), closed=True)

    # -- full runs -----------------------------------------------------------------

    def execute(
        self,
        env: Environment,
        horizon: float,
        scheduler: Scheduler | None = None,
        start: Valuation | None = None,
    ) -> ExecutionFragment:
        """Run the automaton for ``horizon`` time, alternating trajectories and
        discrete actions.

        At every sample instant the scheduler may fire enabled actions (each as
        a zero-time step, splitting the run into a new trajectory); between
        instants the generator advances one step.  The run starts from
        ``start``, or from the unique start state if there is exactly one.
        """
        if start is None:
            if len(self.starts) != 1:
                raise ActionNotEnabled(
                    f"{self.name} has {len(self.starts)} start states; pass one explicitly"
                )
            start = self.starts[0]
        sched = scheduler if scheduler is not None else UrgentScheduler(self)
        n = self._steps_for(horizon)
        x = self.gen.settle(start)
        trajs: list[Trajectory] = []
        actions: list[str] = []
        cur: list[Valuation] = []
        all_vars = self.sig.all_vars
        env.reset()
        for k in range(n + 1):
            t = k * self.time_step
            # Outputs are a function of the state: one evaluation per state
            # feeds both the environment and the recorded sample.
            y = self.gen.output(x)
            u = env.observe(t, y)
            fired = 0
            while True:
                enabled = self.enabled_actions(x, u)
                act = sched.pick(t, x, u, enabled)
                if act is None:
                    break
                fired += 1
                if fired > MAX_FIRINGS_PER_INSTANT:
                    raise SchedulerDeadlock(
                        f"more than {MAX_FIRINGS_PER_INSTANT} firings at t={t}"
                    )
                cur.append(self.full_sample(x, u, y))
                trajs.append(
                    Trajectory(all_vars, self.time_step, tuple(cur), closed=True)
                )
                actions.append(act)
                x = self.step(x, act, u)
                cur = []
                y = self.gen.output(x)
                u = env.observe(t, y)
            cur.append(self.full_sample(x, u, y))
            if k < n:
                x = self.gen.flow(x, u, self.time_step)
        trajs.append(Trajectory(all_vars, self.time_step, tuple(cur), closed=True))
        return ExecutionFragment(tuple(trajs), tuple(actions))

    def is_start(self, x: Valuation) -> bool:
        return any(x == s for s in self.starts)
