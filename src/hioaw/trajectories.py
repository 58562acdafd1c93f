"""Sampled trajectories over named variables, and the algebra on them.

A trajectory assigns a valuation to every sample instant ``0, dt, 2*dt, ...``
of its domain.  Automaton variables hold scalars, booleans or labels; world
variables hold :class:`~hioaw.fields.FieldSlice` values.  The operators here
are the ones everything else is built from: prefix, suffix, interval
restriction, variable projection, concatenation, and variable-wise sum.

Two conventions matter and are easy to get wrong:

* Concatenation joins trajectories end to start.  At each junction the
  *earlier* trajectory's final valuation wins; the later one's first valuation
  is dropped.  Concatenation does not require those two valuations to agree.
* Summation requires identical time domains.  Variables owned by one operand
  are copied through; variables shared by both are added value-wise (fields by
  their kind's law, reals by +, booleans by or).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DomainMismatch,
    GridMisaligned,
    NonSummableType,
    OpenNonFinalPart,
    TimeOutOfDomain,
    VarSetMismatch,
)
from .fields import FieldSlice

# Tolerance used when snapping a time argument onto the sample lattice.
TIME_ALIGN_TOL = 1e-9


class VarKind(enum.Enum):
    AUTOMATON = "automaton"
    WORLD = "world"


class IoRole(enum.Enum):
    INPUT = "input"
    INTERNAL = "internal"
    OUTPUT = "output"


@dataclass(frozen=True, eq=False)
class VarName:
    """A declared variable.

    Identity is the pair (name, kind): the same name always denotes the same
    variable no matter which signature mentions it, while the i/o role is how
    one particular automaton classifies it and is deliberately kept out of
    equality.  A name that is an input of one component and an output of
    another is still one variable.
    """

    name: str
    kind: VarKind
    io: IoRole

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be nonempty")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VarName):
            return NotImplemented
        return self.name == other.name and self.kind == other.kind

    def __hash__(self) -> int:
        return hash((self.name, self.kind))

    def __repr__(self) -> str:
        return f"VarName({self.name!r}, {self.kind.value}, {self.io.value})"


def auto_var(name: str, io: IoRole = IoRole.INTERNAL) -> VarName:
    return VarName(name, VarKind.AUTOMATON, io)


def world_var(name: str, io: IoRole = IoRole.INTERNAL) -> VarName:
    return VarName(name, VarKind.WORLD, io)


def names_of(vs: Iterable[VarName | str]) -> frozenset[str]:
    """Normalise a mixed collection of variables / names to a name set."""
    return frozenset(v.name if isinstance(v, VarName) else v for v in vs)


class Valuation(Mapping[str, object]):
    """An immutable assignment of values to variable names."""

    __slots__ = ("_d",)

    def __init__(self, entries: Mapping[str, object] | Iterable[tuple[str, object]] = ()):
        d = dict(entries)
        object.__setattr__(self, "_d", d)

    def __getitem__(self, key: str) -> object:
        return self._d[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={self._d[k]!r}" for k in sorted(self._d))
        return f"Valuation({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Valuation):
            return self._d == other._d
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.freeze())

    def project(self, names: Iterable[VarName | str]) -> "Valuation":
        keep = names_of(names)
        return Valuation({k: v for k, v in self._d.items() if k in keep})

    def merge(self, other: Mapping[str, object]) -> "Valuation":
        """Union of two valuations; on overlap the other one wins."""
        d = dict(self._d)
        d.update(other)
        return Valuation(d)

    def assoc(self, **changes: object) -> "Valuation":
        d = dict(self._d)
        d.update(changes)
        return Valuation(d)

    def freeze(self) -> tuple:
        """Canonical hashable key (fields keyed by their stored cells' bytes)."""
        out = []
        for k in sorted(self._d):
            v = self._d[k]
            if isinstance(v, FieldSlice):
                out.append((k, v.kind.value, v.index.tobytes(), v.data.tobytes()))
            else:
                out.append((k, v))
        return tuple(out)


def valuations_close(a: Valuation, b: Valuation, field_tol: float = 0.0) -> bool:
    """Equality, with a cell-wise tolerance on REAL field values only.

    Automaton-variable values always compare exactly; with ``field_tol == 0``
    fields do too.
    """
    if set(a.keys()) != set(b.keys()):
        return False
    for k, va in a.items():
        vb = b[k]
        if isinstance(va, FieldSlice) or isinstance(vb, FieldSlice):
            if not isinstance(va, FieldSlice) or not isinstance(vb, FieldSlice):
                return False
            if field_tol > 0.0:
                if not va.close_to(vb, field_tol):
                    return False
            elif va != vb:
                return False
        elif va != vb:
            return False
    return True


def _sum_values(a: object, b: object) -> object:
    if isinstance(a, FieldSlice) and isinstance(b, FieldSlice):
        return a + b
    if isinstance(a, bool) and isinstance(b, bool):
        return a or b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not (
        isinstance(a, bool) or isinstance(b, bool)
    ):
        return a + b
    raise NonSummableType(f"no sum for values of types {type(a).__name__}/{type(b).__name__}")


@dataclass(frozen=True)
class Trajectory:
    """A uniformly sampled trajectory over a declared variable set.

    ``samples[k]`` is the valuation at time ``k * time_step``.  A closed
    trajectory includes its right endpoint; an open one carries the same
    samples but marks the final valuation as not part of the domain (only the
    last trajectory of an execution may be open).
    """

    vars: frozenset[VarName]
    time_step: float
    samples: tuple[Valuation, ...]
    closed: bool = True

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a trajectory needs at least one sample")
        if not (self.time_step > 0.0):
            raise ValueError("time_step must be positive")
        declared = names_of(self.vars)
        world = {v.name for v in self.vars if v.kind is VarKind.WORLD}
        for k, sample in enumerate(self.samples):
            if set(sample.keys()) != declared:
                raise VarSetMismatch(
                    f"sample {k} assigns {sorted(sample.keys())}, "
                    f"declared variables are {sorted(declared)}"
                )
            for name, value in sample.items():
                if (name in world) != isinstance(value, FieldSlice):
                    raise VarSetMismatch(
                        f"variable {name!r} at sample {k}: world variables hold "
                        "field slices, automaton variables never do"
                    )

    # -- basic views ---------------------------------------------------------

    @property
    def steps(self) -> int:
        """Number of whole sample intervals covered."""
        return len(self.samples) - 1

    @property
    def ltime(self) -> float:
        return self.steps * self.time_step

    @property
    def duration(self) -> float:
        return self.ltime

    @property
    def fval(self) -> Valuation:
        return self.samples[0]

    @property
    def lval(self) -> Valuation:
        if not self.closed:
            raise TimeOutOfDomain("an open trajectory has no final valuation")
        return self.samples[-1]

    def index_of(self, t: float) -> int:
        """Sample index for time ``t``; must sit on the lattice and in domain."""
        k = t / self.time_step
        rk = round(k)
        if abs(k - rk) > TIME_ALIGN_TOL / self.time_step:
            raise GridMisaligned(
                f"time {t} is not a multiple of the step {self.time_step}"
            )
        rk = int(rk)
        if not (0 <= rk <= self.steps):
            raise TimeOutOfDomain(f"time {t} outside domain [0, {self.ltime}]")
        return rk

    def at(self, t: float) -> Valuation:
        return self.samples[self.index_of(t)]

    # -- operators -----------------------------------------------------------

    def prefix(self, t: float) -> "Trajectory":
        """The part of the trajectory up to and including time ``t``."""
        k = self.index_of(t)
        return Trajectory(self.vars, self.time_step, self.samples[: k + 1], closed=True)

    def suffix(self, t: float) -> "Trajectory":
        """The part from time ``t`` on, shifted to start at time zero."""
        k = self.index_of(t)
        return Trajectory(self.vars, self.time_step, self.samples[k:], closed=self.closed)

    def restrict(self, lo: float, hi: float) -> "Trajectory":
        """The closed window [lo, hi], shifted to start at time zero."""
        if lo > hi:
            raise TimeOutOfDomain(f"empty window [{lo}, {hi}]")
        return self.prefix(hi).suffix(lo)

    def project(self, keep: Iterable[VarName | str]) -> "Trajectory":
        """Drop all variables outside ``keep``; domain is unchanged."""
        keep_names = names_of(keep)
        new_vars = frozenset(v for v in self.vars if v.name in keep_names)
        new_samples = tuple(s.project(keep_names) for s in self.samples)
        return Trajectory(new_vars, self.time_step, new_samples, self.closed)

    def __add__(self, other: "Trajectory") -> "Trajectory":
        if not isinstance(other, Trajectory):
            return NotImplemented
        return sum_trajectories(self, other)

    def shape_equal(self, other: "Trajectory") -> bool:
        return (
            self.time_step == other.time_step
            and len(self.samples) == len(other.samples)
            and self.closed == other.closed
        )


def point_trajectory(
    vars: Iterable[VarName], valuation: Valuation, time_step: float
) -> Trajectory:
    """The zero-duration trajectory holding a single valuation."""
    return Trajectory(frozenset(vars), time_step, (valuation,), closed=True)


def constant_trajectory(
    vars: Iterable[VarName], valuation: Valuation, time_step: float, steps: int
) -> Trajectory:
    """A trajectory holding the same valuation at every sample."""
    return Trajectory(frozenset(vars), time_step, (valuation,) * (steps + 1), closed=True)


def concat(parts: Sequence[Trajectory]) -> Trajectory:
    """Concatenate trajectories end to start.

    All parts must share variable set and step, and every part but the last
    must be closed.  At each junction the earlier part's final valuation is
    kept and the later part's first valuation is dropped; no agreement between
    the two is required.
    """
    if not parts:
        raise ValueError("concat of no trajectories")
    head = parts[0]
    for i, p in enumerate(parts):
        if names_of(p.vars) != names_of(head.vars) or p.time_step != head.time_step:
            raise VarSetMismatch(f"part {i} differs in variables or step")
        if i < len(parts) - 1 and not p.closed:
            raise OpenNonFinalPart(f"part {i} is open but not final")
    samples: list[Valuation] = list(head.samples)
    for p in parts[1:]:
        samples.extend(p.samples[1:])
    return Trajectory(head.vars, head.time_step, tuple(samples), closed=parts[-1].closed)


def sum_trajectories(a: Trajectory, b: Trajectory) -> Trajectory:
    """Variable-wise sum of two trajectories over the same time domain.

    Variables private to one operand are copied; shared variables are added
    value-wise at every sample.
    """
    if a.time_step != b.time_step or len(a.samples) != len(b.samples) or a.closed != b.closed:
        raise DomainMismatch("summands must cover the same sampled time domain")
    names_a, names_b = names_of(a.vars), names_of(b.vars)
    shared = names_a & names_b
    merged_vars = a.vars | b.vars
    out: list[Valuation] = []
    for sa, sb in zip(a.samples, b.samples):
        d: dict[str, object] = {}
        for k, v in sa.items():
            d[k] = _sum_values(v, sb[k]) if k in shared else v
        for k, v in sb.items():
            if k not in shared:
                d[k] = v
        out.append(Valuation(d))
    return Trajectory(merged_vars, a.time_step, tuple(out), closed=a.closed)


def trajectories_close(a: Trajectory, b: Trajectory, field_tol: float = 0.0) -> bool:
    """Sample-wise comparison; ``field_tol`` relaxes REAL field cells only."""
    if names_of(a.vars) != names_of(b.vars) or not a.shape_equal(b):
        return False
    return all(
        valuations_close(sa, sb, field_tol) for sa, sb in zip(a.samples, b.samples)
    )
