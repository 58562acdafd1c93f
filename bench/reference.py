"""Fixed reference kernels, timed around every op to gauge the machine's speed.

On a shared host the same op can take half as long again in a slow minute
as in a quiet one, and a slow stretch can last as long as a whole run.  The
kernels below do a fixed amount of work of the kinds ``hioaw`` spends its
time on and touch nothing of the package, so dividing an op's time by its
kernel's time taken just before and just after it cancels most of the
machine's drift but none of a change to the program.

The drift hits interpreted Python far harder than bulk numpy: in the same
runs the fine-grid op, mostly elementwise work on 400x400 arrays, spread
0.07 of its median while the Python kernel spread 0.17.  So each workload
names the kernel of the kind of work that dominates it (``Workload.reference``):

- ``python``: dict and set lookups on tuple keys, small objects, sorting and
  string formatting; read-only mappings and frozen dataclasses sliced,
  projected and rebuilt, as valuations and trajectories are; and tens of
  thousands of short-lived objects, a working set past the small caches.
- ``numpy``: elementwise sums, maxima, masks and copies on a 400x400 grid,
  as the fields of a fine grid are.

Set-up time, which must stay in seconds, is scaled to the ``python``
kernel's :data:`NOMINAL_S` instead.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def key(self) -> tuple[int, int]:
        return (self.a, self.b & 7)


def _search_part() -> int:
    counts: dict[int, int] = {}
    for i in range(40000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    seen: set[tuple[int, int]] = set()
    frontier = [_Node(i, i * 7) for i in range(300)]
    for step in range(12):
        nxt = []
        for node in frontier:
            k = node.key()
            if k in seen:
                continue
            seen.add(k)
            nxt.append(_Node(node.b % 1000, node.a + step))
        frontier = sorted(nxt, key=_Node.key)[:300]
    text = ",".join(f"{x}:{y}" for x, y in sorted(seen)[:500])
    return len(text) + sum(counts.values())


class _Values(Mapping):
    __slots__ = ("_d",)

    def __init__(self, entries):
        self._d = dict(entries)

    def __getitem__(self, key):
        return self._d[key]

    def __iter__(self):
        return iter(self._d)

    def __len__(self):
        return len(self._d)

    def project(self, names: frozenset) -> "_Values":
        return _Values((k, v) for k, v in self._d.items() if k in names)


@dataclass(frozen=True)
class _Run:
    samples: tuple

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("empty run")


def _algebra_part() -> int:
    keep = frozenset({"a", "c"})
    total = 0
    for _ in range(6):
        runs = [_Run(tuple(_Values({"a": i, "b": j, "c": i * j}) for j in range(8)))
                for i in range(120)]
        for k in range(1, 40):
            joined = _Run(tuple(v.project(keep) for run in runs[:k][-3:] for v in run.samples))
            total += len(joined.samples) + len(runs[k:])
            total += len(frozenset(joined.samples[0]) | keep)
    return total


def _alloc_part() -> int:
    rows = [(i, str(i), [i]) for i in range(30000)]
    rows.sort(key=lambda row: row[1])
    return rows[0][0]


_GRID = np.arange(400 * 400, dtype=np.float64).reshape(400, 400) % 13


def python_kernel() -> None:
    """About 45 ms on a 2-core Xeon guest when it is quiet."""
    _search_part()
    _algebra_part()
    _alloc_part()


def numpy_kernel() -> None:
    """About 40 ms on a 2-core Xeon guest when it is quiet."""
    acc = np.zeros_like(_GRID)
    for k in range(40):
        acc = acc + _GRID * (k & 3)
        acc = np.maximum(acc, _GRID[::-1])
        window = acc[100:300, 100:300]
        window[window > 6] = 0.5
        _ = acc.copy()


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def timed(name: str = "python") -> float:
    """Seconds the named kernel takes now."""
    kernel = KERNELS[name]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


# The python kernel's time on that guest in a quiet minute: the speed that
# set-up times are scaled to.
NOMINAL_S = 0.045


def at_reference_speed(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_seconds``, as it
    would read on a machine where the kernel takes :data:`NOMINAL_S`."""
    return seconds * NOMINAL_S / kernel_seconds
