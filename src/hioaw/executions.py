"""Executions (alternating trajectories and actions), their restrictions,
traces, and stutter padding.

An execution fragment is ``t0 a1 t1 a2 ... an tn``: n actions separating n+1
trajectories over one variable set.  Restricting a fragment to an action set
keeps matching actions as junctions and erases the rest, concatenating the
flanking trajectories; restricting to a variable set projects every
trajectory.  A *trace* is the restriction to the external actions and
external variables of an automaton.

Padding inserts stutter junctions (the reserved action ``EPSILON``) at chosen
sample-aligned times, splitting trajectories without changing behaviour.
``unpad`` undoes any padding; ``align_paddings`` pads several executions of
equal duration so that they all break at the same instants, which makes their
trajectories correspond index by index.

Padding, alignment, restriction and unpadding each take one pass, linear in
the number of trajectories plus junctions (and in the samples they copy):
stutters are merged in along the sorted offsets, and each maximal run of
erased junctions is joined by a single ``concat``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    DurationMismatch,
    GridMisaligned,
    MalformedPadding,
    TimeOutOfDomain,
    VarSetMismatch,
)
from .trajectories import (
    IoRole,
    Trajectory,
    Valuation,
    VarName,
    concat,
    names_of,
    point_trajectory,
    trajectories_close,
)

# Reserved stutter action; never part of an automaton's alphabet.
EPSILON = "eps"


@dataclass(frozen=True)
class ExecutionFragment:
    """An alternating sequence of trajectories and actions.

    Structural invariants (variable sets, step, closedness of non-final
    trajectories) are enforced here; whether junctions follow an automaton's
    transition relation is the automaton's business, not this container's.
    """

    trajectories: tuple[Trajectory, ...]
    actions: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.trajectories:
            raise ValueError("an execution fragment needs at least one trajectory")
        if len(self.actions) != len(self.trajectories) - 1:
            raise ValueError(
                f"{len(self.trajectories)} trajectories need "
                f"{len(self.trajectories) - 1} actions, got {len(self.actions)}"
            )
        head = self.trajectories[0]
        for i, tr in enumerate(self.trajectories):
            if names_of(tr.vars) != names_of(head.vars) or tr.time_step != head.time_step:
                raise VarSetMismatch(f"trajectory {i} differs in variables or step")
            if i < len(self.trajectories) - 1 and not tr.closed:
                raise VarSetMismatch(f"trajectory {i} is open but not final")

    # -- views -----------------------------------------------------------------

    @property
    def vars(self) -> frozenset[VarName]:
        return self.trajectories[0].vars

    @property
    def time_step(self) -> float:
        return self.trajectories[0].time_step

    @property
    def total_steps(self) -> int:
        return sum(tr.steps for tr in self.trajectories)

    @property
    def duration(self) -> float:
        return self.total_steps * self.time_step

    @property
    def fval(self) -> Valuation:
        return self.trajectories[0].fval

    @property
    def lval(self) -> Valuation:
        return self.trajectories[-1].lval

    @property
    def is_padded(self) -> bool:
        return EPSILON in self.actions

    def junction_offsets(self) -> list[int]:
        """Global sample offset at which each action occurs."""
        out = []
        off = 0
        for tr, _act in zip(self.trajectories, self.actions):
            off += tr.steps
            out.append(off)
        return out

    def project(self, keep: Iterable[VarName | str]) -> "ExecutionFragment":
        return ExecutionFragment(
            tuple(tr.project(keep) for tr in self.trajectories), self.actions
        )


def executions_close(
    a: ExecutionFragment, b: ExecutionFragment, field_tol: float = 0.0
) -> bool:
    """Same actions at the same places, trajectories equal sample-wise."""
    if a.actions != b.actions or len(a.trajectories) != len(b.trajectories):
        return False
    return all(
        trajectories_close(ta, tb, field_tol)
        for ta, tb in zip(a.trajectories, b.trajectories)
    )


def restrict_execution(
    frag: ExecutionFragment,
    keep_actions: Iterable[str],
    keep_vars: Iterable[VarName | str],
) -> ExecutionFragment:
    """Keep only the given actions and variables.

    Erased actions (stutters always among them) disappear as junctions: the
    trajectories around them are concatenated, the earlier one's final
    valuation surviving at the join.
    """
    keep_act = frozenset(keep_actions) - {EPSILON}
    projected = [tr.project(keep_vars) for tr in frag.trajectories]
    return _erase_junctions(
        projected, frag.actions, [act not in keep_act for act in frag.actions]
    )


def _erase_junctions(
    trajs: Sequence[Trajectory], actions: Sequence[str], erased: Sequence[bool]
) -> ExecutionFragment:
    """Drop the junctions flagged in ``erased``, joining the trajectories
    around each maximal run of them with one ``concat``."""
    out_trajs: list[Trajectory] = []
    out_actions: list[str] = []
    run = [trajs[0]]
    for act, gone, nxt in zip(actions, erased, trajs[1:]):
        if gone:
            run.append(nxt)
            continue
        out_trajs.append(run[0] if len(run) == 1 else concat(run))
        out_actions.append(act)
        run = [nxt]
    out_trajs.append(run[0] if len(run) == 1 else concat(run))
    return ExecutionFragment(tuple(out_trajs), tuple(out_actions))


def trace_of(frag: ExecutionFragment, sig) -> ExecutionFragment:
    """The externally visible part of a fragment: external actions over
    external variables."""
    return restrict_execution(frag, sig.external_actions, sig.external_vars)


# -- step-indexed slicing helpers -------------------------------------------------


def _prefix_steps(tr: Trajectory, k: int) -> Trajectory:
    return Trajectory(tr.vars, tr.time_step, tr.samples[: k + 1], closed=True)


def _suffix_steps(tr: Trajectory, k: int) -> Trajectory:
    return Trajectory(tr.vars, tr.time_step, tr.samples[k:], closed=tr.closed)


def prefix_execution(
    frag: ExecutionFragment, traj_index: int, local_steps: int
) -> ExecutionFragment:
    """The fragment up to sample ``local_steps`` of trajectory ``traj_index``."""
    if not (0 <= traj_index < len(frag.trajectories)):
        raise TimeOutOfDomain(f"no trajectory {traj_index}")
    tr = frag.trajectories[traj_index]
    if not (0 <= local_steps <= tr.steps):
        raise TimeOutOfDomain(f"trajectory {traj_index} has only {tr.steps} steps")
    trajs = list(frag.trajectories[:traj_index]) + [_prefix_steps(tr, local_steps)]
    return ExecutionFragment(tuple(trajs), frag.actions[:traj_index])


# -- padding ---------------------------------------------------------------------


def pad(frag: ExecutionFragment, cut_times: Iterable[float]) -> ExecutionFragment:
    """Insert stutter junctions at the given times.

    Every cut must land on the sample lattice and strictly inside one
    trajectory: cutting at an existing junction (or twice at the same spot)
    would create a zero-length piece and is rejected.
    """
    dt = frag.time_step
    offsets: list[int] = []
    for t in cut_times:
        k = t / dt
        rk = round(k)
        if abs(k - rk) > 1e-9:
            raise GridMisaligned(f"cut {t} is not a multiple of the step {dt}")
        offsets.append(int(rk))
    if len(set(offsets)) != len(offsets):
        raise GridMisaligned("duplicate cut would create a zero-length piece")
    total = frag.total_steps
    for o in offsets:
        if not (0 <= o <= total):
            raise TimeOutOfDomain(f"cut at step {o} outside [0, {total}]")
    boundaries = {0, total} | set(frag.junction_offsets())
    for o in offsets:
        if o in boundaries:
            raise GridMisaligned(
                f"cut at step {o} hits a junction; zero-length pieces are not allowed"
            )
    return _insert_stutters(frag, dict.fromkeys(offsets, 1))


def _internal_names(vars: frozenset[VarName]) -> frozenset[str]:
    return frozenset(v.name for v in vars if v.io is IoRole.INTERNAL)


def unpad(frag: ExecutionFragment) -> ExecutionFragment:
    """Remove every stutter junction, concatenating across it.

    A stutter junction must not change the internal state; if it does the
    padding is malformed.
    """
    internal = _internal_names(frag.vars)
    trajs = frag.trajectories
    erased = [act == EPSILON for act in frag.actions]
    for i, gone in enumerate(erased):
        if gone and trajs[i].lval.project(internal) != trajs[i + 1].fval.project(internal):
            raise MalformedPadding("stutter junction joins different internal states")
    return _erase_junctions(trajs, frag.actions, erased)


def align_paddings(runs: Sequence[ExecutionFragment]) -> list[ExecutionFragment]:
    """Pad all runs so their junctions coincide instant for instant.

    All runs must have the same step and total duration.  The result has, for
    every run, the same number of trajectories with identical per-index
    lengths: junction instants are the union of all runs' junction instants,
    repeated to the largest multiplicity (simultaneous actions produce
    zero-length point trajectories, matched in the others by stutters).  A
    run whose final trajectory is open cannot take a stutter at its final
    instant, so a junction there in another run is rejected.
    """
    runs = list(runs)
    if not runs:
        return []
    if len({r.time_step for r in runs}) != 1:
        raise DurationMismatch("runs use different sample steps")
    if len({r.total_steps for r in runs}) != 1:
        raise DurationMismatch("runs cover different total durations")
    total = runs[0].total_steps
    haves = [Counter(r.junction_offsets()) for r in runs]
    target: Counter[int] = Counter()
    for have in haves:
        target |= have
    for i, (r, have) in enumerate(zip(runs, haves)):
        if total and target[total] and not have[total] and not r.trajectories[-1].closed:
            raise DurationMismatch(
                f"run {i} is open at its end, but another run has a junction "
                f"at its final instant (step {total})"
            )
    return [_insert_stutters(r, target - have) for r, have in zip(runs, haves)]


def _insert_stutters(frag: ExecutionFragment, counts: Mapping[int, int]) -> ExecutionFragment:
    """Insert ``counts[o]`` stutter junctions at each global sample offset ``o``.

    One pass over the trajectories and the sorted offsets.  Stutters at an
    offset go after the last junction already there; with none there, the
    first one splits the trajectory strictly spanning the offset, or, at the
    ends of the domain, adds a point trajectory.  Every zero-length piece
    added holds the sample of the trajectory that follows it, or at the end
    of the domain the final sample.
    """
    dt = frag.time_step
    todo = sorted(counts.items(), reverse=True)
    trajs: list[Trajectory] = []
    actions: list[str] = []

    def stutter(n: int, tr: Trajectory, val: Valuation) -> None:
        for _ in range(n):
            trajs.append(point_trajectory(tr.vars, val, dt))
            actions.append(EPSILON)

    last = len(frag.trajectories) - 1
    base = 0
    for i, tr in enumerate(frag.trajectories):
        # `tr` follows the last junction at `base` (or starts the domain).
        if todo and todo[-1][0] == base and (tr.steps > 0 or i == last):
            stutter(todo.pop()[1], tr, tr.fval)
        prev = 0
        while todo and todo[-1][0] < base + tr.steps:
            o, n = todo.pop()
            local = o - base
            trajs.append(Trajectory(tr.vars, dt, tr.samples[prev : local + 1], closed=True))
            actions.append(EPSILON)
            stutter(n - 1, tr, tr.samples[local])
            prev = local
        trajs.append(tr if prev == 0 else _suffix_steps(tr, prev))
        if i < last:
            actions.append(frag.actions[i])
        base += tr.steps
    if todo:  # the final instant, where no junction is yet
        tr = frag.trajectories[-1]
        for _ in range(todo.pop()[1]):
            actions.append(EPSILON)
            trajs.append(point_trajectory(tr.vars, tr.lval, dt))
    return ExecutionFragment(tuple(trajs), tuple(actions))
