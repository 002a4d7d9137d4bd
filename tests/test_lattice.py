"""Geometry, parameters, index sets and grids."""

import json
import math

import numpy as np
import pytest

import helimag
from helimag.lattice import (
    Domain,
    ModelParams,
    ScalarGrid,
    SpinField,
    det_sum,
    GEOM_TOL,
    helix,
    index_mask,
    index_ranges,
    spin_vectors,
)
from oracles import chain_keep


def test_every_exported_name_imports():
    namespace = {}
    exec("from helimag import *", namespace)  # AttributeError on a name that is gone
    assert set(helimag.__all__) <= namespace.keys()


def test_det_sum_is_deterministic_and_exact_on_ints():
    a = np.arange(1000, dtype=float).reshape(20, 50)
    assert det_sum(a) == 999 * 1000 / 2
    assert det_sum(a) == det_sum(a.copy())


class TestDomain:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Domain(width=0.0)
        with pytest.raises(ValueError):
            Domain(height=-1.0)

    def test_cell_inside_rectangle(self):
        d = Domain(width=1.0, height=1.0)
        lam = 0.25

        def inside(i, j):
            cols, rows = index_ranges(d, lam, 8, 8)
            return i in stencil_cells(cols) and j in stencil_cells(rows)

        assert inside(0, 0)
        assert inside(3, 3)
        assert not inside(4, 0)
        assert not inside(-1, 0)

    def test_cell_inside_boundary_tolerance(self):
        # cell touching the boundary exactly counts as inside
        d = Domain(width=0.75, height=0.75)
        cols, rows = index_ranges(d, 0.25, 8, 8)
        assert 2 in stencil_cells(cols) and 2 in stencil_cells(rows)
        assert 3 not in stencil_cells(cols) and 2 in stencil_cells(rows)


def stencil_cells(span):
    """The cells k0, ..., k1 that the stencils k0, ..., k1 - 1 of an index
    range read: stencil k reads cells k and k + 1."""
    k0, k1 = span
    return range(k0, k1 + 1) if k1 > k0 else range(0)


class TestModelParams:
    def test_derived_quantities(self):
        p = ModelParams(lam=0.01, delta=0.5)
        assert p.alpha == pytest.approx(2.0)
        assert p.epsilon == pytest.approx(0.01)
        assert p.helix_angle == pytest.approx(math.pi / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(lam=-1.0, delta=0.5)
        with pytest.raises(ValueError):
            ModelParams(lam=0.1, delta=0.0)
        with pytest.raises(ValueError):
            ModelParams(lam=0.1, delta=1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_spacing(self, lam):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(lam=lam, delta=0.5)

    def test_out_of_regime_warns(self):
        with pytest.warns(UserWarning):
            ModelParams(lam=2.0, delta=0.5)


class TestIndexSet:
    def test_unit_square_quarter_spacing(self):
        # 4x4 cells; needs cells (i,j), (i+1,j), (i,j+1) all inside
        got = index_mask(Domain(), 0.25, 4, 4)
        want = [[i < 3 and j < 3 for i in range(4)] for j in range(4)]
        np.testing.assert_array_equal(got, want)

    def test_empty_when_too_coarse(self):
        assert not index_mask(Domain(), 0.9, 2, 2).any()

    def test_offset_domain(self):
        got = index_mask(Domain(x0=1.0, y0=2.0, width=0.5, height=0.5), 0.25, 6, 10)
        assert list(zip(*np.nonzero(got))) == [(8, 4)]


def cell_inside(domain, i, j, lam):
    """The closed cell Q(i, j) = [lam*i, lam*(i+1)] x [lam*j, lam*(j+1)] lies
    in the domain's rectangle, each side widened by GEOM_TOL times the
    largest coordinate magnitude (at least 1)."""
    x0, y0, x1, y1 = domain.x0, domain.y0, domain.x0 + domain.width, domain.y0 + domain.height
    tol = GEOM_TOL * max(1.0, abs(x0) + domain.width, abs(y0) + domain.height)
    return (x0 - tol <= lam * i and lam * (i + 1) <= x1 + tol
            and y0 - tol <= lam * j and lam * (j + 1) <= y1 + tol)


def per_cell_interior(domain, lam, i_range, j_range):
    """Loop reference: (len(j_range), len(i_range)) mask of the indices whose
    cells Q(i,j), Q(i+1,j), Q(i,j+1) pass cell_inside one by one."""
    inside = {
        (i, j): cell_inside(domain, i, j, lam)
        for j in range(j_range.start, j_range.stop + 1)
        for i in range(i_range.start, i_range.stop + 1)
    }
    return np.array(
        [
            [inside[i, j] and inside[i + 1, j] and inside[i, j + 1] for i in i_range]
            for j in j_range
        ],
        dtype=bool,
    ).reshape(len(j_range), len(i_range))


def random_rectangles(rng, count):
    """Rectangles with offset origins, sides on and off the lattice, and
    cells that exactly touch the boundary, each with a spacing."""
    for k in range(count):
        lam = float(rng.choice([0.1, 0.25, 1.0 / 3.0, 0.07]))
        ox, oy = rng.integers(-4, 5, 2)
        cx, cy = rng.integers(1, 9, 2)
        if k % 3 == 0:  # sides and origin on lattice lines: touching cells
            x0, y0, w, h = ox * lam, oy * lam, cx * lam, cy * lam
        elif k % 3 == 1:  # lam = 0.1 and width 0.3 style sides
            x0, y0 = ox * lam, oy * lam
            w, h = round(cx * lam, 6), round(cy * lam, 6)
        else:  # arbitrary origin and sides
            x0, y0 = rng.uniform(-0.5, 0.5, 2)
            w, h = rng.uniform(0.05, 1.0, 2)
        yield Domain(x0=float(x0), y0=float(y0), width=float(w), height=float(h)), lam


class TestIndexSetReference:
    def test_mask_matches_per_cell_loop(self):
        rng = np.random.default_rng(20240417)
        for domain, lam in random_rectangles(rng, 300):
            # nx, ny from well below to well above the domain's extent
            nx, ny = (int(v) for v in rng.integers(0, 16, 2))
            want = per_cell_interior(domain, lam, range(nx), range(ny))
            np.testing.assert_array_equal(index_mask(domain, lam, nx, ny), want)

    def test_width_off_the_lattice(self):
        # 0.3 is not three float steps of 0.1; the slack keeps the touching cell
        d = Domain(width=0.3, height=0.3)
        np.testing.assert_array_equal(
            index_mask(d, 0.1, 4, 3),
            [[True, True, False, False], [True, True, False, False], [False] * 4],
        )


class TestIndexRanges:
    def test_rectangle_matches_per_cell_loop(self):
        rng = np.random.default_rng(20240418)
        for domain, lam in random_rectangles(rng, 300):
            nx, ny = (int(v) for v in rng.integers(0, 16, 2))
            (i0, i1), (j0, j1) = index_ranges(domain, lam, nx, ny)
            assert 0 <= i0 <= i1 <= nx and 0 <= j0 <= j1 <= ny
            got = np.zeros((ny, nx), dtype=bool)
            got[j0:j1, i0:i1] = True
            np.testing.assert_array_equal(got, per_cell_interior(domain, lam, range(nx), range(ny)))

    def test_chain_range_matches_the_per_stencil_mask(self):
        # a chain's stencils, read on the plane's tolerance, are those the
        # interval's own tolerance keeps
        rng = np.random.default_rng(20240419)
        for domain, lam in random_rectangles(rng, 600):
            n = int(rng.integers(0, 40))
            (i0, i1), _ = index_ranges(domain, lam, max(n - 2, 0), 1)
            got = np.zeros(max(n - 2, 0), dtype=bool)
            got[i0:i1] = True
            interval = (domain.x0, domain.x0 + domain.width)
            np.testing.assert_array_equal(got, chain_keep(n, interval, lam))

    @pytest.mark.parametrize("domain", [
        Domain(x0=math.inf), Domain(x0=math.nan), Domain(width=math.inf),
        Domain(y0=-math.inf), Domain(height=math.inf),
    ])
    def test_non_finite_domain_matches_per_cell_loop(self, domain):
        (i0, i1), (j0, j1) = index_ranges(domain, 0.25, 6, 5)
        got = np.zeros((5, 6), dtype=bool)
        got[j0:j1, i0:i1] = True
        np.testing.assert_array_equal(got, per_cell_interior(domain, 0.25, range(6), range(5)))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="positive"):
            index_ranges(Domain(), 0.0, 4, 4)


class TestHelix:
    @pytest.mark.parametrize("pair", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_helix_is_beta_times_the_index_combination(self, pair):
        p = ModelParams(lam=0.1, delta=0.3)
        psi = helix((3, 5), p, pair)
        jj, ii = np.mgrid[0:3, 0:5]
        assert psi.tobytes() == (p.helix_angle * (pair[0] * ii + pair[1] * jj)).tobytes()

    def test_spin_vectors_are_the_field_vectors(self):
        u = SpinField.from_angles(np.linspace(-3, 3, 12).reshape(3, 4), 0.1)
        ux, uy = u.vectors()
        assert ux.tobytes() == np.cos(u.angles).tobytes()
        assert uy.tobytes() == np.sin(u.angles).tobytes()
        assert u.vectors().tobytes() == spin_vectors(u.angles).tobytes()


class TestGrids:
    def test_scalar_grid_roundtrip(self):
        g = ScalarGrid.from_values(np.arange(6.0).reshape(2, 3), 0.5)
        g2 = ScalarGrid.from_json(g.to_json())
        assert g2.nx == 3 and g2.ny == 2
        assert g2.spacing == 0.5
        np.testing.assert_array_equal(g2.values, g.values)

    def test_spin_field_roundtrip(self):
        u = SpinField.from_angles(np.linspace(-3, 3, 12).reshape(3, 4), 0.1)
        u2 = SpinField.from_json(u.to_json())
        np.testing.assert_allclose(u2.angles, u.angles)
        ux, uy = u2.vectors()
        np.testing.assert_allclose(ux * ux + uy * uy, 1.0)

    def test_json_row_major_layout(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        doc = json.loads(ScalarGrid.from_values(vals, 1.0).to_json())
        assert doc["values"] == [1.0, 2.0, 3.0, 4.0]
