"""Discrete spatial fields over a rectangular grid.

World variables take their values here: a :class:`FieldSlice` is the value of
one world variable at one instant, a :class:`SpatioTemporalField` is the same
variable followed over a sampled time interval.  Space is a finite grid of
square cells; a field assigns one value per cell and is evaluated at a point
by looking up the cell containing it.

Three value kinds are supported.  ``REAL`` and ``COUNT`` fields add cell-wise;
``BOOL`` fields combine under logical *or*.  ``COUNT`` exists so that
occupancy layers written by several automata can be added and still be
rendered back to the boolean "is anything here" question afterwards.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    EmptyFootprint,
    GridMismatch,
    InvalidParams,
    KindMismatch,
    OutOfGrid,
)

# Hard ceiling on grid size; keeps every operation comfortably in memory.
MAX_GRID_CELLS = 1024 * 1024

Cell = tuple[int, int]
# A set of cells: the sorted, distinct flat indices ``iy * width + ix``.
Region = np.ndarray
Point = tuple[float, float]


@dataclass(frozen=True)
class SpaceGrid:
    """A finite rectangle of square cells.

    Parameters
    ----------
    width, height:
        Cell counts along x and y.
    cell_size:
        Edge length of a cell, in world units.
    origin:
        World coordinates of the grid's lower-left corner.
    """

    width: int
    height: int
    cell_size: float
    origin: Point = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise InvalidParams("grid needs at least one cell per axis")
        if self.width * self.height > MAX_GRID_CELLS:
            raise InvalidParams(
                f"grid of {self.width}x{self.height} cells exceeds the "
                f"budget of {MAX_GRID_CELLS}"
            )
        if not (self.cell_size > 0.0):
            raise InvalidParams("cell_size must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape used for cell data: (height, width)."""
        return (self.height, self.width)

    def contains_point(self, p: Point) -> bool:
        x0, y0 = self.origin
        return (
            x0 <= p[0] < x0 + self.width * self.cell_size
            and y0 <= p[1] < y0 + self.height * self.cell_size
        )

    def cell_of(self, p: Point) -> Cell:
        """Cell index (ix, iy) containing point ``p``.

        Raises
        ------
        OutOfGrid
            If ``p`` lies outside the grid rectangle.
        """
        if not self.contains_point(p):
            raise OutOfGrid(f"point {p} lies outside the grid")
        x0, y0 = self.origin
        ix = int((p[0] - x0) / self.cell_size)
        iy = int((p[1] - y0) / self.cell_size)
        # guard against float edge cases on the upper boundary
        return (min(ix, self.width - 1), min(iy, self.height - 1))

    def cell_center(self, cell: Cell) -> Point:
        ix, iy = cell
        if not (0 <= ix < self.width and 0 <= iy < self.height):
            raise OutOfGrid(f"cell {cell} outside {self.width}x{self.height} grid")
        x0, y0 = self.origin
        return (x0 + (ix + 0.5) * self.cell_size, y0 + (iy + 0.5) * self.cell_size)


@lru_cache(maxsize=32)
def _center_arrays(grid: SpaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """(cx, cy) arrays of cell-centre coordinates, shape (height, width)."""
    x0, y0 = grid.origin
    xs = x0 + (np.arange(grid.width) + 0.5) * grid.cell_size
    ys = y0 + (np.arange(grid.height) + 0.5) * grid.cell_size
    cx, cy = np.meshgrid(xs, ys)
    cx.setflags(write=False)
    cy.setflags(write=False)
    return cx, cy


class FieldKind(enum.Enum):
    """Value kind of a field, with its cell dtype and combination law."""

    REAL = "real"
    COUNT = "count"
    BOOL = "bool"

    @property
    def dtype(self) -> np.dtype:
        return _DTYPES[self]

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self is FieldKind.BOOL:
            return np.logical_or(a, b)
        return a + b


_DTYPES = {
    FieldKind.REAL: np.dtype(np.float64),
    FieldKind.COUNT: np.dtype(np.int64),
    FieldKind.BOOL: np.dtype(np.bool_),
}


@dataclass(frozen=True, eq=False, init=False)
class FieldSlice:
    """The value of one world variable at a single instant.

    Stored sparsely: ``index`` holds the sorted flat indices
    (``iy * width + ix``) of the nonzero cells and ``data`` their values, both
    read-only.  Zero cells are never stored, so equal slices store equal
    arrays and hash alike.  ``FieldSlice(grid, kind, dense)`` builds a slice
    from a (height, width) array; :attr:`values` rebuilds that dense array on
    demand.
    """

    grid: SpaceGrid
    kind: FieldKind
    index: np.ndarray
    data: np.ndarray

    def __init__(self, grid: SpaceGrid, kind: FieldKind, values: object) -> None:
        arr = np.asarray(values, dtype=kind.dtype)
        if arr.shape != grid.shape:
            raise GridMismatch(f"cell array {arr.shape} does not match grid {grid.shape}")
        flat = arr.reshape(-1)
        index = np.flatnonzero(flat)
        self._store(grid, kind, index, flat[index])

    def _store(
        self, grid: SpaceGrid, kind: FieldKind, index: np.ndarray, data: np.ndarray
    ) -> None:
        index.setflags(write=False)
        data.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "data", data)

    @classmethod
    def _sparse(
        cls, grid: SpaceGrid, kind: FieldKind, index: np.ndarray, data: np.ndarray
    ) -> "FieldSlice":
        """A slice taking ownership of ``data`` on the sorted distinct cells
        ``index``; zero values are dropped."""
        nonzero = data != 0
        if not nonzero.all():
            index, data = index[nonzero], data[nonzero]
        out = object.__new__(cls)
        out._store(grid, kind, index, data)
        return out

    @classmethod
    def zeros(cls, grid: SpaceGrid, kind: FieldKind) -> "FieldSlice":
        return cls._sparse(grid, kind, np.empty(0, dtype=np.intp), np.empty(0, kind.dtype))

    @classmethod
    def from_cells(
        cls, grid: SpaceGrid, kind: FieldKind, cells: Region, value: object = 1
    ) -> "FieldSlice":
        """A slice holding ``value`` (a scalar, or one value per cell) on a
        region's cells and zero elsewhere.

        Raises
        ------
        InvalidParams
            If ``cells`` is not a sorted array of distinct cells of the grid.
        """
        index = np.array(cells, dtype=np.intp).reshape(-1)
        if index.size and (
            index[0] < 0
            or index[-1] >= grid.width * grid.height
            or bool(np.any(index[1:] <= index[:-1]))
        ):
            raise InvalidParams("cells must be sorted distinct flat indices of the grid")
        data = np.full(index.shape, value, dtype=kind.dtype)
        return cls._sparse(grid, kind, index, data)

    @property
    def values(self) -> np.ndarray:
        """Read-only dense array of shape (height, width), indexed
        ``values[iy, ix]``; built afresh on every access."""
        flat = np.zeros(self.grid.width * self.grid.height, dtype=self.kind.dtype)
        flat[self.index] = self.data
        arr = flat.reshape(self.grid.shape)
        arr.setflags(write=False)
        return arr

    def gather(self, cells: Region) -> np.ndarray:
        """Values at the given flat cell indices, zero where nothing is stored."""
        out = np.zeros(len(cells), dtype=self.kind.dtype)
        if self.index.size:
            pos = np.minimum(np.searchsorted(self.index, cells), self.index.size - 1)
            hit = self.index[pos] == cells
            out[hit] = self.data[pos[hit]]
        return out

    def at(self, p: Point) -> object:
        """Field value at a point: the value of the cell containing it."""
        ix, iy = self.grid.cell_of(p)
        v = self.gather(np.array([iy * self.grid.width + ix]))[0]
        if self.kind is FieldKind.REAL:
            return float(v)
        if self.kind is FieldKind.COUNT:
            return int(v)
        return bool(v)

    def __add__(self, other: "FieldSlice") -> "FieldSlice":
        if not isinstance(other, FieldSlice):
            return NotImplemented
        if self.grid != other.grid:
            raise GridMismatch("cannot combine fields on different grids")
        if self.kind != other.kind:
            raise KindMismatch(f"cannot combine {self.kind} with {other.kind}")
        index = np.union1d(self.index, other.index)
        data = self.kind.combine(self.gather(index), other.gather(index))
        return FieldSlice._sparse(self.grid, self.kind, index, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSlice):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.kind == other.kind
            and bool(np.array_equal(self.index, other.index))
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.grid, self.kind, self.index.tobytes(), self.data.tobytes()))

    def close_to(self, other: "FieldSlice", tol: float) -> bool:
        """Cell-wise comparison with tolerance on REAL fields, exact otherwise."""
        if self.grid != other.grid or self.kind != other.kind:
            return False
        if self.kind is FieldKind.REAL:
            index = np.union1d(self.index, other.index)
            return bool(np.allclose(self.gather(index), other.gather(index), rtol=tol, atol=tol))
        return self == other

    def occupied(self) -> np.ndarray:
        """Boolean mask of cells that read as 'present' (nonzero / true)."""
        if self.kind is FieldKind.BOOL:
            return self.values
        return self.values > 0

    def integral(self) -> float:
        """Sum of cell values times cell area (REAL fields only)."""
        if self.kind is not FieldKind.REAL:
            raise KindMismatch("integral is defined for REAL fields")
        return float(self.data.sum(dtype=np.float64) * self.grid.cell_size**2)


@dataclass(frozen=True)
class SpatioTemporalField:
    """One world variable followed over uniformly sampled time.

    ``slices[k]`` is the field at time ``k * time_step``.
    """

    grid: SpaceGrid
    kind: FieldKind
    slices: tuple[FieldSlice, ...]
    time_step: float

    def __post_init__(self) -> None:
        if not self.slices:
            raise InvalidParams("a spatio-temporal field needs at least one slice")
        for s in self.slices:
            if s.grid != self.grid:
                raise GridMismatch("all slices must share the field's grid")
            if s.kind != self.kind:
                raise KindMismatch("all slices must share the field's kind")
        if not (self.time_step > 0.0):
            raise InvalidParams("time_step must be positive")

    @classmethod
    def from_trajectory(cls, traj, name: str) -> "SpatioTemporalField":
        """View one world variable of a sampled trajectory as a field."""
        slices = tuple(sample[name] for sample in traj.samples)
        first = slices[0]
        return cls(first.grid, first.kind, slices, traj.time_step)

    @property
    def ltime(self) -> float:
        return (len(self.slices) - 1) * self.time_step

    def slice_at(self, t: float) -> FieldSlice:
        k = t / self.time_step
        rk = round(k)
        if abs(k - rk) > 1e-9:
            raise OutOfGrid(f"time {t} is not aligned to step {self.time_step}")
        if not (0 <= rk < len(self.slices)):
            raise OutOfGrid(f"time {t} outside field domain [0, {self.ltime}]")
        return self.slices[int(rk)]

    def at(self, t: float, p: Point) -> object:
        """Evaluate the field at time ``t`` and point ``p``."""
        return self.slice_at(t).at(p)

    def __add__(self, other: "SpatioTemporalField") -> "SpatioTemporalField":
        if not isinstance(other, SpatioTemporalField):
            return NotImplemented
        if len(self.slices) != len(other.slices) or self.time_step != other.time_step:
            raise GridMismatch("fields cover different time domains")
        merged = tuple(a + b for a, b in zip(self.slices, other.slices))
        return SpatioTemporalField(self.grid, self.kind, merged, self.time_step)


def field_sum(a: SpatioTemporalField, b: SpatioTemporalField) -> SpatioTemporalField:
    return a + b


# -- regions and vehicle geometry ------------------------------------------------


def _fold_half_turn(phi: float) -> float:
    """Fold a heading into [0, pi); a rectangle is symmetric under half turns."""
    r = math.fmod(phi, math.pi)
    return r + math.pi if r < 0.0 else r


def _span(c: float, reach: float, origin: float, size: float, n: int) -> slice:
    """Cell indices along one axis whose centres may lie within ``reach`` of
    ``c``, with one cell of slack on each side; empty for NaN input."""
    lo = (c - reach - origin) / size - 1.0
    hi = (c + reach - origin) / size + 2.0
    lo = min(lo, n) if lo > 0.0 else 0.0
    hi = min(hi, n) if hi > 0.0 else 0.0
    return slice(int(lo), int(hi))


def _window(
    grid: SpaceGrid, center: Point, reach: float
) -> tuple[slice, slice, np.ndarray, np.ndarray]:
    """Row and column slices bounding the disc of ``reach`` around ``center``,
    and the centre offsets ``(cx - center_x, cy - center_y)`` of their cells.

    The offsets are the full-grid arrays' own elements, so every test on them
    picks the same cells, bit for bit, as it would over the whole grid.
    """
    rows = _span(center[1], reach, grid.origin[1], grid.cell_size, grid.height)
    cols = _span(center[0], reach, grid.origin[0], grid.cell_size, grid.width)
    cx, cy = _center_arrays(grid)
    return rows, cols, cx[rows, cols] - center[0], cy[rows, cols] - center[1]


def _cells(mask: np.ndarray, rows: slice, cols: slice, grid: SpaceGrid) -> Region:
    """Sorted flat indices of the window cells set in ``mask``."""
    iys, ixs = np.nonzero(mask)
    return (iys + rows.start) * grid.width + (ixs + cols.start)


def footprint(
    phi: float, center: Point, length: float, width: float, grid: SpaceGrid
) -> Region:
    """Cells whose centres lie inside a rotated rectangle.

    The rectangle has the given ``length`` along heading ``phi`` and ``width``
    across it, centred at ``center``.  Cells are tested by their centres;
    boundary centres count as inside.  Only the cells around the rectangle
    are examined, so the cost does not depend on the grid's size.
    """
    if length <= 0.0 or width <= 0.0:
        raise InvalidParams("rectangle dimensions must be positive")
    a = _fold_half_turn(phi)
    c, s = math.cos(a), math.sin(a)
    rows, cols, dx, dy = _window(grid, center, math.hypot(length, width) / 2.0)
    u = dx * c + dy * s
    v = -dx * s + dy * c
    mask = (np.abs(u) <= length / 2.0) & (np.abs(v) <= width / 2.0)
    return _cells(mask, rows, cols, grid)


def neighborhood(center: Point, radius: float, exclude: Region, grid: SpaceGrid) -> Region:
    """Cells whose centres lie within ``radius`` of ``center``, minus ``exclude``.

    This is the sensing region of a vehicle: a disc around it with its own
    footprint removed so it never reacts to itself.
    """
    if radius <= 0.0:
        raise InvalidParams("radius must be positive")
    rows, cols, dx, dy = _window(grid, center, radius)
    disc = _cells(dx**2 + dy**2 <= radius**2, rows, cols, grid)
    return np.setdiff1d(disc, exclude, assume_unique=True)


def occupancy_field(region: Region, grid: SpaceGrid) -> FieldSlice:
    """COUNT field that is 1 on the region's cells and 0 elsewhere."""
    return FieldSlice.from_cells(grid, FieldKind.COUNT, region, 1)


def pressure_field(mass: float, region: Region, grid: SpaceGrid) -> FieldSlice:
    """Uniform pressure exerted by ``mass`` spread over a region.

    Every cell of the region carries ``mass / (n * cell_size**2)`` so the
    field integrates back to ``mass`` over the grid.
    """
    if mass < 0.0:
        raise InvalidParams("mass must be nonnegative")
    if not len(region):
        raise EmptyFootprint("cannot spread mass over an empty region")
    per_cell = mass / (len(region) * grid.cell_size**2)
    return FieldSlice.from_cells(grid, FieldKind.REAL, region, per_cell)


def slice_exists(
    fslice: FieldSlice, region: Region, pred: Callable[[np.ndarray], np.ndarray]
) -> bool:
    """True iff some cell of the region satisfies the predicate now.

    ``pred`` maps the array of the region's cell values to a boolean array.
    """
    return bool(np.any(pred(fslice.gather(region))))


@lru_cache(maxsize=2)
def _csv_prefixes(grid: SpaceGrid) -> tuple[str, ...]:
    """The ``"x,y,"`` start of every snapshot row, row-major over cells."""
    x0, y0 = grid.origin
    xs = [f"{x0 + (ix + 0.5) * grid.cell_size:.9g}," for ix in range(grid.width)]
    ys = [f"{y0 + (iy + 0.5) * grid.cell_size:.9g}," for iy in range(grid.height)]
    return tuple(x + y for y in ys for x in xs)


def snapshot_csv(fslice: FieldSlice) -> str:
    """Render a slice as ``x,y,value`` CSV text, row-major over cells."""
    grid = fslice.grid
    cells = ["0"] * (grid.width * grid.height)
    if fslice.kind is FieldKind.REAL:
        stored = [f"{v:.9g}" for v in fslice.data.tolist()]
    else:
        stored = [str(v) for v in fslice.data.astype(np.int64).tolist()]
    for i, text in zip(fslice.index.tolist(), stored):
        cells[i] = text
    body = "\n".join(map(operator.add, _csv_prefixes(grid), cells))
    return f"x,y,value\n{body}\n"
