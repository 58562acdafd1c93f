"""Binary parallel composition and its inverse on executions.

Two automata compose when their interfaces mesh: hidden actions and internal
variables stay private, output actions and automaton output variables do not
clash, and no world input is also a world output.  World *output* variables
shared by both components are special: they are the stigmergic channel, and
the composite writes the value-wise sum of the components' contributions.

A composite keeps references to its parts.  Because generators are
deterministic and outputs are state-determined, every composite execution can
be decomposed again: per-component witnesses are recovered by replaying each
component on the inputs recorded in the composite's own samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Hioaw, SampledGenerator, Signature, TransitionRule
from .errors import IncompatibleAutomata, NotAComposite
from .executions import (
    EPSILON,
    ExecutionFragment,
    executions_close,
    restrict_execution,
    trace_of,
    unpad,
)
from .trajectories import (
    IoRole,
    Trajectory,
    Valuation,
    VarKind,
    VarName,
    names_of,
    trajectories_close,
    _sum_values,
)


# Synced rule pairs get priority ra.priority * BASE + rb.priority; part-local
# priorities must stay below this for the pair ranking to be collision-free.
_SYNC_PRIORITY_BASE = 1 << 20


@dataclass(frozen=True)
class ClauseVerdict:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CompatReport:
    """Five per-clause verdicts; the pair composes iff all hold."""

    clauses: tuple[ClauseVerdict, ...]

    @property
    def compatible(self) -> bool:
        return all(c.ok for c in self.clauses)

    def __str__(self) -> str:
        lines = [
            f"  [{'ok' if c.ok else 'FAIL'}] {c.name}" + (f": {c.detail}" if c.detail else "")
            for c in self.clauses
        ]
        return "\n".join(lines)


def check_compatible(a: Hioaw, b: Hioaw) -> CompatReport:
    """Evaluate the five compatibility clauses for a pair of automata."""
    sa, sb = a.sig, b.sig
    clauses: list[ClauseVerdict] = []

    wi = names_of(sa.world_in) | names_of(sb.world_in)
    wo = names_of(sa.world_out) | names_of(sb.world_out)
    clash = wi & wo
    clauses.append(
        ClauseVerdict(
            "world inputs never world outputs",
            not clash,
            f"shared: {sorted(clash)}" if clash else "",
        )
    )

    h_clash = (sa.actions_hidden & sb.actions) | (sb.actions_hidden & sa.actions)
    clauses.append(
        ClauseVerdict(
            "hidden actions private",
            not h_clash,
            f"shared: {sorted(h_clash)}" if h_clash else "",
        )
    )

    x_clash = (names_of(sa.internals) & names_of(sb.all_vars)) | (
        names_of(sb.internals) & names_of(sa.all_vars)
    )
    clauses.append(
        ClauseVerdict(
            "internal variables private",
            not x_clash,
            f"shared: {sorted(x_clash)}" if x_clash else "",
        )
    )

    o_clash = sa.actions_out & sb.actions_out
    clauses.append(
        ClauseVerdict(
            "output actions disjoint",
            not o_clash,
            f"shared: {sorted(o_clash)}" if o_clash else "",
        )
    )

    # Shared world outputs are the sanctioned summation channel, so the
    # output-disjointness clause applies to automaton outputs only.
    y_clash = names_of(sa.auto_out) & names_of(sb.auto_out)
    clauses.append(
        ClauseVerdict(
            "automaton outputs disjoint",
            not y_clash,
            f"shared: {sorted(y_clash)}" if y_clash else "",
        )
    )
    return CompatReport(tuple(clauses))


def shared_world_outputs(a: Hioaw, b: Hioaw) -> frozenset[str]:
    return names_of(a.sig.world_out) & names_of(b.sig.world_out)


def _component_input_fn(part: Hioaw, other: Hioaw):
    """Resolve one component's input valuation from the composite's inputs and
    the other component's state (for inputs wired to its outputs)."""
    in_names = names_of(part.sig.inputs)
    wired = in_names & names_of(other.sig.auto_out)
    plain = in_names - wired

    def resolve(u: Valuation, other_state: Valuation) -> Valuation:
        d = {n: u[n] for n in plain}
        if wired:
            out = other.gen.output(other_state)
            for n in wired:
                d[n] = out[n]
        return Valuation(d)

    return resolve


def compose(a: Hioaw, b: Hioaw) -> Hioaw:
    """The parallel composite of two compatible automata.

    Raises ``IncompatibleAutomata`` if the clauses fail, the steps differ, or
    a shared world variable is declared with different grid or kind.
    """
    report = check_compatible(a, b)
    if not report.compatible:
        raise IncompatibleAutomata(f"{a.name} and {b.name}:\n{report}")
    if a.time_step != b.time_step:
        raise IncompatibleAutomata(
            f"sample steps differ: {a.time_step} vs {b.time_step}"
        )
    sa, sb = a.sig, b.sig
    for n in names_of(sa.world_vars) & names_of(sb.world_vars):
        if a.field_specs.get(n) != b.field_specs.get(n):
            raise IncompatibleAutomata(
                f"world variable {n!r} has different grid or kind in the two parts"
            )

    auto_out = sa.auto_out | sb.auto_out
    out_names = names_of(auto_out)
    auto_in = frozenset(
        VarName(n, VarKind.AUTOMATON, IoRole.INPUT)
        for n in (names_of(sa.auto_in) | names_of(sb.auto_in)) - out_names
    )
    actions_out = sa.actions_out | sb.actions_out
    sig = Signature(
        world_in=sa.world_in | sb.world_in,
        world_internal=sa.world_internal | sb.world_internal,
        world_out=sa.world_out | sb.world_out,
        auto_in=auto_in,
        auto_internal=sa.auto_internal | sb.auto_internal,
        auto_out=auto_out,
        actions_in=(sa.actions_in | sb.actions_in) - actions_out,
        actions_hidden=sa.actions_hidden | sb.actions_hidden,
        actions_out=actions_out,
    )

    xa_names = names_of(sa.internals)
    xb_names = names_of(sb.internals)
    shared_out = shared_world_outputs(a, b)
    in_a = _component_input_fn(a, b)
    in_b = _component_input_fn(b, a)

    def split(x: Valuation) -> tuple[Valuation, Valuation]:
        return x.project(xa_names), x.project(xb_names)

    def state_pred(x: Valuation) -> bool:
        if set(x.keys()) != xa_names | xb_names:
            return False
        xa, xb = split(x)
        return a.state_pred(xa) and b.state_pred(xb)

    starts = tuple(xa.merge(xb) for xa in a.starts for xb in b.starts)

    def lift_own(rule: TransitionRule, own: Hioaw, own_in, own_names) -> TransitionRule:
        def guard(x: Valuation, u: Valuation) -> bool:
            xo = x.project(own_names)
            other_state = x.project(
                xb_names if own is a else xa_names
            )
            return rule.guard(xo, own_in(u, other_state))

        def effect(x: Valuation) -> Valuation:
            xo = x.project(own_names)
            return x.merge(rule.effect(xo))

        return TransitionRule(rule.action, guard, effect, rule.urgent, rule.priority)

    def lift_sync(ra: TransitionRule, rb: TransitionRule) -> TransitionRule:
        def guard(x: Valuation, u: Valuation) -> bool:
            xa, xb = split(x)
            return ra.guard(xa, in_a(u, xb)) and rb.guard(xb, in_b(u, xa))

        def effect(x: Valuation) -> Valuation:
            xa, xb = split(x)
            return x.merge(ra.effect(xa)).merge(rb.effect(xb))

        # Rank synced rule pairs lexicographically by part priorities so that
        # step() stays resolvable whenever both parts resolve their own ties.
        if ra.priority is None or rb.priority is None:
            prio = None
        else:
            prio = ra.priority * _SYNC_PRIORITY_BASE + rb.priority
        return TransitionRule(
            ra.action, guard, effect, ra.urgent or rb.urgent, prio
        )

    rules: list[TransitionRule] = []
    shared_actions = sa.actions & sb.actions
    for ra in a.rules:
        if ra.action in shared_actions:
            for rb in b.rules_for(ra.action):
                rules.append(lift_sync(ra, rb))
        else:
            rules.append(lift_own(ra, a, in_a, xa_names))
    for rb in b.rules:
        if rb.action not in shared_actions:
            rules.append(lift_own(rb, b, in_b, xb_names))

    def flow(x: Valuation, u: Valuation, dt: float) -> Valuation:
        xa, xb = split(x)
        return a.gen.flow(xa, in_a(u, xb), dt).merge(b.gen.flow(xb, in_b(u, xa), dt))

    def output(x: Valuation) -> Valuation:
        xa, xb = split(x)
        oa = a.gen.output(xa)
        ob = b.gen.output(xb)
        d = dict(oa)
        for n, v in ob.items():
            d[n] = _sum_values(d[n], v) if n in shared_out else v
        return Valuation(d)

    def settle(x: Valuation) -> Valuation:
        xa, xb = split(x)
        return a.gen.settle(xa).merge(b.gen.settle(xb))

    input_names = names_of(sig.inputs)
    default_inputs = a.default_inputs.merge(b.default_inputs).project(input_names)
    specs = dict(a.field_specs)
    specs.update(b.field_specs)

    return Hioaw(
        name=f"{a.name}||{b.name}",
        sig=sig,
        state_pred=state_pred,
        starts=starts,
        rules=tuple(rules),
        gen=SampledGenerator(flow, output, settle),
        time_step=a.time_step,
        default_inputs=default_inputs,
        field_specs=specs,
        parts=(a, b),
    )


# -- decomposition ------------------------------------------------------------------


def _replay_component(part: Hioaw, frag: ExecutionFragment) -> ExecutionFragment:
    """Recover one component's padded run from a composite execution, then
    strip the stutters left by the other component's actions."""
    internal = names_of(part.sig.internals)
    in_vars = part.sig.inputs
    in_names = names_of(in_vars)
    trajs: list[Trajectory] = []
    for tr in frag.trajectories:
        x0 = tr.fval.project(internal)
        inputs = Trajectory(
            in_vars,
            tr.time_step,
            tuple(s.project(in_names) for s in tr.samples),
            closed=True,
        )
        trajs.append(part.generate(x0, inputs, tr.steps * part.time_step))
    actions = tuple(
        act if act in part.sig.actions else EPSILON for act in frag.actions
    )
    return unpad(ExecutionFragment(tuple(trajs), actions))


def decompose_execution(
    comp: Hioaw, frag: ExecutionFragment
) -> tuple[ExecutionFragment, ExecutionFragment]:
    """Split a composite execution into one execution per component.

    The composite must have been built by :func:`compose`, and the fragment
    must range over the composite's variables.
    """
    if comp.parts is None:
        raise NotAComposite(f"{comp.name} was not built by compose()")
    if names_of(frag.vars) != names_of(comp.sig.all_vars):
        raise NotAComposite(
            "fragment variables do not match the composite signature"
        )
    a, b = comp.parts
    return _replay_component(a, frag), _replay_component(b, frag)


def verify_decomposition(
    comp: Hioaw,
    frag: ExecutionFragment,
    part_a: ExecutionFragment,
    part_b: ExecutionFragment,
    field_tol: float = 1e-9,
) -> list[str]:
    """Check the decomposition equalities; returns human-readable failures.

    Per side, the composite restricted to that component's actions and private
    variables must equal the component execution restricted the same way; on
    the shared world outputs the composite must carry the value-wise sum of
    the two components' contributions.
    """
    a, b = comp.parts  # type: ignore[misc]
    shared = shared_world_outputs(a, b)
    problems: list[str] = []
    for part, fi, label in ((a, part_a, "first"), (b, part_b, "second")):
        keep = names_of(part.sig.all_vars) - shared
        lhs = restrict_execution(frag, part.sig.actions, keep)
        rhs = restrict_execution(fi, part.sig.actions, keep)
        if not executions_close(lhs, rhs, field_tol):
            problems.append(f"{label} component disagrees outside the shared outputs")
    if shared:
        lhs_sh = restrict_execution(frag, (), shared).trajectories[0]
        rhs_sh = (
            restrict_execution(part_a, (), shared).trajectories[0]
            + restrict_execution(part_b, (), shared).trajectories[0]
        )
        if not trajectories_close(lhs_sh, rhs_sh, field_tol):
            problems.append("shared world outputs are not the sum of contributions")
    return problems


@dataclass(frozen=True)
class TraceProjection:
    """One component's view of a composite trace plus the shared residual."""

    component_trace: ExecutionFragment
    shared_residual: Trajectory | None


def project_trace(comp: Hioaw, frag: ExecutionFragment, side: int) -> TraceProjection:
    """Project a composite execution's trace onto component ``side`` (0 or 1).

    The composite execution itself is required (not just its trace) because
    the witnesses are reconstructed by replay.  The residual is the composite
    trace restricted to the shared world outputs, a single junction-free
    trajectory carrying the summed values.
    """
    if comp.parts is None:
        raise NotAComposite(f"{comp.name} was not built by compose()")
    parts = decompose_execution(comp, frag)
    part = comp.parts[side]
    beta_i = trace_of(parts[side], part.sig)
    shared = shared_world_outputs(*comp.parts)
    residual = None
    if shared:
        residual = restrict_execution(frag, (), shared).trajectories[0]
    return TraceProjection(beta_i, residual)
