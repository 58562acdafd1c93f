"""Grid/field behavior against independent scalar-loop oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import region_cells
from hioaw import (
    FieldKind,
    FieldSlice,
    SpaceGrid,
    SpatioTemporalField,
    Valuation,
    field_sum,
    footprint,
    neighborhood,
    occupancy_field,
    pressure_field,
    snapshot_csv,
)
from hioaw.errors import (
    EmptyFootprint,
    GridMismatch,
    InvalidParams,
    KindMismatch,
    OutOfGrid,
)
from hioaw.fields import MAX_GRID_CELLS, slice_exists

GRID = SpaceGrid(20, 16, 0.5, (0.0, 0.0))


# -- oracles: scalar re-derivations, no numpy, no angle folding --------------------


def oracle_in_rect(phi, center, length, width, p):
    dx, dy = p[0] - center[0], p[1] - center[1]
    c, s = math.cos(phi), math.sin(phi)
    along = dx * c + dy * s
    across = -dx * s + dy * c
    return abs(along) <= length / 2.0 and abs(across) <= width / 2.0


def oracle_footprint(phi, center, length, width, grid):
    cells = set()
    for iy in range(grid.height):
        for ix in range(grid.width):
            if oracle_in_rect(phi, center, length, width, grid.cell_center((ix, iy))):
                cells.add((ix, iy))
    return cells


def oracle_disc(center, radius, grid):
    cells = set()
    for iy in range(grid.height):
        for ix in range(grid.width):
            cx, cy = grid.cell_center((ix, iy))
            if (cx - center[0]) ** 2 + (cy - center[1]) ** 2 <= radius**2:
                cells.add((ix, iy))
    return cells


def test_footprint_matches_scalar_oracle():
    rng = random.Random(11)
    for _ in range(40):
        phi = rng.uniform(0.0, math.pi - 1e-6)
        center = (rng.uniform(2.0, 8.0), rng.uniform(2.0, 6.0))
        length = rng.uniform(0.7, 3.1)
        width = rng.uniform(0.4, 2.0)
        got = footprint(phi, center, length, width, GRID)
        want = oracle_footprint(phi, center, length, width, GRID)
        assert region_cells(got, GRID) == want


def test_footprint_half_turn_symmetry():
    # irrational-ish geometry so no cell centre sits exactly on the boundary
    for phi in (0.37, 1.13, 2.21, 2.9):
        base = footprint(phi, (5.13, 4.71), 1.7, 0.9, GRID)
        assert np.array_equal(footprint(phi + math.pi, (5.13, 4.71), 1.7, 0.9, GRID), base)
        assert np.array_equal(footprint(phi - math.pi, (5.13, 4.71), 1.7, 0.9, GRID), base)


def test_footprint_axis_aligned_counts():
    # length 2, width 1 at cell 0.5: exactly 4x2 cell centres inside when
    # the rectangle is centred on a cell corner
    g = SpaceGrid(10, 10, 0.5)
    fp = region_cells(footprint(0.0, (2.5, 2.5), 1.9, 0.9, g), g)
    assert len(fp) == 4 * 2
    xs = sorted({c[0] for c in fp})
    ys = sorted({c[1] for c in fp})
    assert xs == [3, 4, 5, 6] and ys == [4, 5]


def test_footprint_rejects_degenerate_rectangles():
    with pytest.raises(InvalidParams):
        footprint(0.0, (3.0, 3.0), 0.0, 1.0, GRID)


def test_neighborhood_matches_scalar_oracle():
    rng = random.Random(23)
    for _ in range(40):
        center = (rng.uniform(2.0, 8.0), rng.uniform(2.0, 6.0))
        radius = rng.uniform(0.8, 3.0) + 0.013
        exclude = footprint(0.31, center, 1.1, 0.7, GRID)
        got = neighborhood(center, radius, exclude, GRID)
        want = oracle_disc(center, radius, GRID) - region_cells(exclude, GRID)
        assert region_cells(got, GRID) == want


def test_neighborhood_excludes_own_region():
    fp = footprint(0.0, (5.0, 4.0), 2.0, 1.0, GRID)
    ring = neighborhood((5.0, 4.0), 2.0, fp, GRID)
    assert not (region_cells(ring, GRID) & region_cells(fp, GRID))
    assert ring.size  # radius 2 exceeds the footprint's semi-diagonal


def test_pressure_field_integrates_to_mass():
    rng = random.Random(7)
    for _ in range(20):
        mass = rng.uniform(1.0, 2000.0)
        fp = footprint(rng.uniform(0, 3), (5.0, 4.0), 2.0, 1.0, GRID)
        field = pressure_field(mass, fp, GRID)
        assert math.isclose(field.integral(), mass, rel_tol=1e-12)
        vals = {field.values[iy, ix] for ix, iy in region_cells(fp, GRID)}
        assert len(vals) == 1  # uniform over the region
    assert pressure_field(0.0, fp, GRID).integral() == 0.0


def test_pressure_field_rejects_bad_inputs():
    fp = footprint(0.0, (5.0, 4.0), 2.0, 1.0, GRID)
    with pytest.raises(InvalidParams):
        pressure_field(-1.0, fp, GRID)
    with pytest.raises(EmptyFootprint):
        pressure_field(10.0, np.empty(0, dtype=np.intp), GRID)


def test_occupancy_field_is_region_indicator():
    fp = footprint(0.77, (5.0, 4.0), 2.0, 1.0, GRID)
    occ = occupancy_field(fp, GRID)
    assert occ.kind is FieldKind.COUNT
    marked = {(int(ix), int(iy)) for iy, ix in zip(*np.nonzero(occ.occupied()))}
    assert marked == region_cells(fp, GRID)
    assert int(occ.values.sum()) == len(fp)


def test_grid_cell_lookup_and_edges():
    g = SpaceGrid(4, 3, 1.0, (1.0, 2.0))
    assert g.cell_of((1.0, 2.0)) == (0, 0)
    assert g.cell_of((4.999, 4.999)) == (3, 2)
    assert g.cell_center((0, 0)) == (1.5, 2.5)
    with pytest.raises(OutOfGrid):
        g.cell_of((5.0, 3.0))  # right edge is exclusive
    with pytest.raises(OutOfGrid):
        g.cell_of((0.999, 2.5))
    with pytest.raises(OutOfGrid):
        g.cell_center((4, 0))


def test_grid_rejects_bad_shapes():
    with pytest.raises(InvalidParams):
        SpaceGrid(0, 5, 1.0)
    with pytest.raises(InvalidParams):
        SpaceGrid(5, 5, 0.0)
    with pytest.raises(InvalidParams):
        SpaceGrid(2048, 1024, 1.0)
    assert MAX_GRID_CELLS == 1024 * 1024


def test_field_slice_add_by_kind():
    g = SpaceGrid(2, 2, 1.0)
    a = FieldSlice(g, FieldKind.REAL, [[1.0, 2.0], [3.0, 4.0]])
    b = FieldSlice(g, FieldKind.REAL, [[0.5, 0.0], [1.0, -4.0]])
    assert np.array_equal((a + b).values, [[1.5, 2.0], [4.0, 0.0]])
    c = FieldSlice(g, FieldKind.COUNT, [[1, 0], [2, 1]])
    d = FieldSlice(g, FieldKind.COUNT, [[1, 1], [0, 1]])
    assert np.array_equal((c + d).values, [[2, 1], [2, 2]])
    e = FieldSlice(g, FieldKind.BOOL, [[True, False], [False, False]])
    f = FieldSlice(g, FieldKind.BOOL, [[True, False], [True, False]])
    assert np.array_equal((e + f).values, [[True, False], [True, False]])
    with pytest.raises(KindMismatch):
        a + c
    with pytest.raises(GridMismatch):
        a + FieldSlice(SpaceGrid(2, 2, 0.5), FieldKind.REAL, [[0.0] * 2] * 2)


def test_field_slice_equality_hash_and_immutability():
    g = SpaceGrid(2, 2, 1.0)
    a = FieldSlice(g, FieldKind.REAL, [[1.0, 2.0], [3.0, 4.0]])
    b = FieldSlice(g, FieldKind.REAL, [[1.0, 2.0], [3.0, 4.0]])
    assert a == b and hash(a) == hash(b)
    assert a != FieldSlice(g, FieldKind.REAL, [[1.0, 2.0], [3.0, 4.5]])
    with pytest.raises(ValueError):
        a.values[0, 0] = 9.0


def test_field_slice_at_and_close_to():
    g = SpaceGrid(3, 2, 1.0)
    a = FieldSlice(g, FieldKind.REAL, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert a.at((2.5, 0.5)) == 2.0
    assert a.at((0.1, 1.9)) == 3.0
    nudged = FieldSlice(g, FieldKind.REAL, a.values + 1e-12)
    assert a.close_to(nudged, 1e-9) and not a.close_to(nudged, 1e-14)
    c = FieldSlice(g, FieldKind.COUNT, [[0, 1, 0], [0, 0, 2]])
    assert c.close_to(FieldSlice(g, FieldKind.COUNT, c.values), 0.0)
    assert a.integral() == 15.0
    with pytest.raises(KindMismatch):
        c.integral()


def test_spatio_temporal_field_lookup_and_sum():
    g = SpaceGrid(2, 2, 1.0)
    mk = lambda v: FieldSlice(g, FieldKind.REAL, np.full((2, 2), float(v)))
    f = SpatioTemporalField(g, FieldKind.REAL, (mk(0), mk(1), mk(2)), 0.1)
    assert f.ltime == pytest.approx(0.2)
    assert f.at(0.2, (0.5, 0.5)) == 2.0
    assert f.slice_at(0.1) == mk(1)
    with pytest.raises(OutOfGrid):
        f.slice_at(0.05)
    with pytest.raises(OutOfGrid):
        f.slice_at(0.3)
    total = field_sum(f, f)
    assert total.slice_at(0.2) == mk(4)
    short = SpatioTemporalField(g, FieldKind.REAL, (mk(0),), 0.1)
    with pytest.raises(GridMismatch):
        field_sum(f, short)


def test_slice_exists_predicates():
    g = SpaceGrid(3, 3, 1.0)
    s = FieldSlice(g, FieldKind.COUNT, [[0, 0, 0], [0, 2, 0], [0, 0, 0]])
    everywhere = np.arange(9)
    assert slice_exists(s, everywhere, lambda v: v > 1)
    assert not slice_exists(s, np.delete(everywhere, 1 * 3 + 1), lambda v: v > 0)
    assert not slice_exists(s, np.empty(0, dtype=np.intp), lambda v: v)


def test_snapshot_csv_golden():
    g = SpaceGrid(3, 2, 1.0)
    s = FieldSlice(g, FieldKind.REAL, [[0.0, 1.5, 2.0], [3.0, 4.0, 5.25]])
    assert snapshot_csv(s) == (
        "x,y,value\n"
        "0.5,0.5,0\n"
        "1.5,0.5,1.5\n"
        "2.5,0.5,2\n"
        "0.5,1.5,3\n"
        "1.5,1.5,4\n"
        "2.5,1.5,5.25\n"
    )
    b = FieldSlice(g, FieldKind.BOOL, [[True, False, False], [False, True, False]])
    assert "0.5,0.5,1" in snapshot_csv(b)


def test_from_cells_takes_sorted_distinct_grid_cells():
    g = SpaceGrid(3, 2, 1.0)
    for bad in ([2, 1], [1, 1], [-1], [6]):
        with pytest.raises(InvalidParams):
            FieldSlice.from_cells(g, FieldKind.COUNT, np.array(bad))
    s = FieldSlice.from_cells(g, FieldKind.REAL, np.array([0, 4]), [2.0, 0.0])
    assert s == FieldSlice(g, FieldKind.REAL, [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert s.index.tolist() == [0]


def test_equal_slices_hash_alike_whatever_the_sign_of_zero():
    g = SpaceGrid(1, 1, 1.0)
    neg = FieldSlice(g, FieldKind.REAL, [[-0.0]])
    pos = FieldSlice(g, FieldKind.REAL, [[0.0]])
    assert neg == pos and hash(neg) == hash(pos)
    assert len({neg, pos}) == 1
    vneg, vpos = Valuation({"f": neg}), Valuation({"f": pos})
    assert vneg == vpos and hash(vneg) == hash(vpos)
    assert len({vneg, vpos}) == 1


# -- sparse slices against a dense reference --------------------------------------------


def dense_snapshot_csv(grid, kind, arr):
    """The row-by-row rendering of a dense array; zero is written as 0."""
    lines = ["x,y,value"]
    for iy in range(grid.height):
        for ix in range(grid.width):
            x, y = grid.cell_center((ix, iy))
            v = arr[iy, ix]
            if kind is FieldKind.REAL:
                val = f"{float(v) + 0.0:.9g}"
            else:
                val = str(int(v))
            lines.append(f"{x:.9g},{y:.9g},{val}")
    return "\n".join(lines) + "\n"


CELL_VALUES = {
    FieldKind.REAL: st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6)),
    FieldKind.COUNT: st.integers(-3, 3),
    FieldKind.BOOL: st.booleans(),
}


@st.composite
def dense_pairs(draw):
    """A grid, a kind and two dense arrays; the second is often the first
    with the sign of its zeros flipped."""
    grid = SpaceGrid(
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.sampled_from([0.125, 0.3, 1.0])),
        (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))),
    )
    kind = draw(st.sampled_from(list(FieldKind)))
    cells = st.lists(CELL_VALUES[kind], min_size=grid.width * grid.height,
                     max_size=grid.width * grid.height)
    a = np.array(draw(cells), dtype=kind.dtype).reshape(grid.shape)
    if draw(st.booleans()):
        b = np.where(a == 0, -a, a) if kind is FieldKind.REAL else a.copy()
    else:
        b = np.array(draw(cells), dtype=kind.dtype).reshape(grid.shape)
    return grid, kind, a, b


@given(dense_pairs())
def test_sparse_slices_agree_with_dense_arrays(case):
    grid, kind, a, b = case
    sa, sb = FieldSlice(grid, kind, a), FieldSlice(grid, kind, b)
    for s, arr in ((sa, a), (sb, b)):
        assert np.array_equal(s.values, arr)
        assert np.all(s.index[1:] > s.index[:-1]) and np.all(s.data != 0)
    total = sa + sb
    assert np.array_equal(total.values, kind.combine(a, b))
    assert np.all(total.data != 0)
    assert (sa == sb) == bool(np.array_equal(a, b))
    if sa == sb:
        assert hash(sa) == hash(sb)
        assert hash(Valuation({"f": sa})) == hash(Valuation({"f": sb}))
    for iy in range(grid.height):
        for ix in range(grid.width):
            got = sa.at(grid.cell_center((ix, iy)))
            assert type(got) is type(a[iy, ix].item()) and got == a[iy, ix]
    assert snapshot_csv(sa) == dense_snapshot_csv(grid, kind, a)


EDGE_FRACTIONS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.5, 1.5))


@given(
    st.integers(1, 30),
    st.integers(1, 30),
    st.floats(0.125, 1.0),
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.tuples(EDGE_FRACTIONS, EDGE_FRACTIONS),
    st.floats(0.0, math.pi, exclude_max=True),
    st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 4.0), st.floats(0.05, 6.0)),
)
def test_windowed_geometry_matches_the_full_grid_oracles(
    width, height, cell, origin, fractions, phi, sizes
):
    grid = SpaceGrid(width, height, cell, origin)
    center = (
        origin[0] + fractions[0] * width * cell,
        origin[1] + fractions[1] * height * cell,
    )
    length, breadth, radius = sizes
    fp = footprint(phi, center, length, breadth, grid)
    fp_cells = region_cells(fp, grid)
    assert fp_cells == oracle_footprint(phi, center, length, breadth, grid)
    ring = neighborhood(center, radius, fp, grid)
    assert region_cells(ring, grid) == oracle_disc(center, radius, grid) - fp_cells
