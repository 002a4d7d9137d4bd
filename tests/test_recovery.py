"""Extension, mollification and the recovery construction."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from mesh_reference import double_sum_mollify, extension, hanging_node_mesh, refined_mesh, \
    rows, three_owner_mesh

from helimag import recovery
from helimag.chirality import transform
from helimag.continuum import MeshError, MeshPotential, build_example, jump_set, kink_edges, \
    limit_energy
from helimag.lattice import Domain, ModelParams
from helimag.recovery import (
    DIAG_WALL_WIDTH,
    WALL_WIDTH,
    CurlProbe,
    Kernel,
    SweepSchedule,
    build_recovery,
    curl_residual,
    extend_potential,
    gamma_sweep,
    gauss_legendre,
    mollify,
    pick_width,
    profile_transition_energy,
    quadrature_band,
    _RowPieces,
)


class TestKernel:
    def test_normalization(self):
        k = Kernel()
        nodes, wts = np.polynomial.legendre.leggauss(200)
        assert float((wts * k.k1(nodes)).sum()) == pytest.approx(1.0, abs=1e-10)

    def test_compact_support(self):
        k = Kernel()
        assert k.k1(np.array([1.0, -1.0, 1.5])).tolist() == [0.0, 0.0, 0.0]

    def test_quadrature_rule_computed_once(self):
        nodes, wts = gauss_legendre(24)
        assert gauss_legendre(24)[0] is nodes
        assert not nodes.flags.writeable and not wts.flags.writeable
        ref_nodes, ref_wts = np.polynomial.legendre.leggauss(24)
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(wts, ref_wts)


def optimal_width(s, ds, lo, hi, order):
    """Multiplier a = sqrt(int |s'|^2 / int W(s)) minimizing the wall energy
    a*int W(s) + (1/a)*int |s'|^2 of the profile s on [lo, hi], W(s) =
    (1 - s^2)^2, by Gauss-Legendre quadrature."""
    nodes, wts = gauss_legendre(order)
    t = lo + 0.5 * (hi - lo) * (nodes + 1.0)
    st = s(t)
    return math.sqrt((wts @ ds(t) ** 2) / (wts @ (1.0 - st * st) ** 2))


def kernel_cdf(k, x, order):
    """K(x) = int_{-1}^{x} k by Gauss-Legendre quadrature on [-1, x], x
    clipped to the support [-1, 1]."""
    half = 0.5 * (np.clip(x, -1.0, 1.0) + 1.0)
    nodes, wts = gauss_legendre(order)
    return half * (k(-1.0 + half[..., None] * (1.0 + nodes)) @ wts)


class TestWallWidth:
    """The hard-coded width multipliers are the optimal ones for the default
    kernel."""

    def test_axis_wall_width(self):
        # profile s = 2K - 1 of a step mollified across an axis wall
        k = Kernel().k1
        a = optimal_width(lambda t: 2.0 * kernel_cdf(k, t, 200) - 1.0,
                          lambda t: 2.0 * k(t), -1.0, 1.0, 200)
        assert a == pytest.approx(WALL_WIDTH, rel=0.0, abs=1e-9)

    def test_diagonal_wall_width(self):
        # self-convolved profile s2 = 2(K*k) - 1 on [-2, 2], s2' = 2(k*k)
        k = Kernel().k1
        tau, w = gauss_legendre(200)
        kw = k(tau) * w
        a = optimal_width(lambda t: 2.0 * (kernel_cdf(k, t[:, None] - tau, 80) @ kw) - 1.0,
                          lambda t: 2.0 * (k(t[:, None] - tau) @ kw), -2.0, 2.0, 200)
        assert a == pytest.approx(DIAG_WALL_WIDTH, rel=0.0, abs=1e-9)


class TestSweepSchedule:
    def test_default_monotone(self):
        s = SweepSchedule.default(finest_n=64, levels=3)
        eps = [p.epsilon for p in s.steps]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert s.steps[-1].lam == pytest.approx(1.0 / 64)

    def test_delta_schedule(self):
        s = SweepSchedule.default(finest_n=32, levels=2)
        for p in s.steps:
            assert p.delta == pytest.approx(p.lam ** (2.0 / 3.0))

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            SweepSchedule(
                steps=[ModelParams(lam=0.01, delta=0.1), ModelParams(lam=0.02, delta=0.1)]
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SweepSchedule(steps=[])

    @pytest.mark.parametrize("finest_n, levels", [(2, 3), (8, 0), (0, 1)])
    def test_default_rejects_levels_without_cells(self, finest_n, levels):
        with pytest.raises(ValueError):
            SweepSchedule.default(finest_n=finest_n, levels=levels)


class TestExtension:
    def test_agrees_inside(self):
        m = build_example("vertical_wall")
        ext = extend_potential(m)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, 50)
        y = rng.uniform(0.0, 1.0, 50)
        np.testing.assert_allclose(ext(x, y), extension(m)(x, y), atol=1e-12)

    def test_lipschitz_sqrt2(self):
        m = build_example("four_quadrant")
        ext = extend_potential(m)
        rng = np.random.default_rng(2)
        p = rng.uniform(-1.0, 2.0, (200, 2))
        q = rng.uniform(-1.0, 2.0, (200, 2))
        lhs = np.abs(ext(p[:, 0], p[:, 1]) - ext(q[:, 0], q[:, 1]))
        rhs = math.sqrt(2.0) * np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1])
        assert np.all(lhs <= rhs + 1e-10)

    def test_jumps_where_a_diagonal_wall_ends(self):
        # the chord x + y = 1 ends at the corner (0, 1); above it the two
        # sides of x = 0 continue the maps 1 - x - y and x + y - 1, which
        # differ by 2 (y - 1) there
        ext = extend_potential(build_example("diagonal_wall"))
        assert float(ext(-1e-6, 1.05)) == pytest.approx(-0.05, abs=2e-6)
        assert float(ext(1e-6, 1.05)) == pytest.approx(0.05, abs=2e-6)
        y = np.array([1.0, 1.01, 1.05, 1.5])
        np.testing.assert_allclose(ext(1e-6, y) - ext(-1e-6, y), 2.0 * (y - 1.0), atol=1e-12)

    def test_continuous_across_boundary(self):
        m = build_example("vertical_wall")
        ext = extend_potential(m)
        y = np.linspace(0.1, 0.9, 9)
        np.testing.assert_allclose(
            ext(np.full_like(y, -1e-9), y), ext(np.zeros_like(y), y), atol=1e-7
        )


def affine_mesh():
    """phi = x - y + 0.5 on the unit square: one label, no kink edges."""
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    return MeshPotential(vertices=verts, triangles=np.array([(0, 1, 2), (1, 3, 2)]),
                         heights=verts[:, 0] - verts[:, 1] + 0.5, domain=Domain())


class TestMollify:
    def test_preserves_affine(self):
        # mollifying an affine function reproduces it exactly, also where
        # the rule reaches past the domain
        x = np.array([0.05, 0.3, 0.5])
        y = np.array([0.2, 0.8, 0.97])
        np.testing.assert_allclose(
            mollify(affine_mesh(), Kernel(), 0.1, x, y),
            x[None, :] - y[:, None] + 0.5, atol=1e-14,
        )

    def test_quadrature_error_on_a_kink(self):
        # the order-24 rule against the order-96 double sum across the
        # kink of the vertical wall's potential: the error bound mollify's
        # docstring states
        def ext(x, y):
            return y + np.abs(x - 0.5)

        x = np.linspace(0.1, 0.9, 13)
        y = np.array([0.5])
        ref = double_sum_mollify(ext, Kernel(), 0.05, order=96)(x[None, :], y[:, None])
        err = np.abs(mollify(build_example("vertical_wall"), Kernel(), 0.05, x, y) - ref).max()
        assert 0.0 < err < 1e-4

    def test_smooths_the_kink(self):
        m = build_example("vertical_wall")
        ext = extend_potential(m)
        # strictly above the kink value at the wall
        assert mollify(m, Kernel(), 0.1, 0.5, 0.5) > ext(0.5, 0.5) + 1e-4

    def test_mask_selects_the_quadrature_points(self):
        m = build_example("vertical_wall")
        ext = extend_potential(m)
        x = np.linspace(0.1, 0.9, 9)
        y = np.array([0.2, 0.7, 0.4])
        mask = np.zeros((3, 9), dtype=bool)
        mask[1, 3:6] = True
        mask[2, 4] = True
        got = mollify(m, Kernel(), 0.1, x, y, mask)
        full = mollify(m, Kernel(), 0.1, x, y)
        np.testing.assert_allclose(got[mask], full[mask], rtol=1e-14)
        # rows 1 and 2 form one run over columns 3-5; away from the wall the
        # rule there gives the extension's value up to rounding
        np.testing.assert_allclose(got[~mask], ext(x[None, :], y[:, None])[~mask], rtol=1e-14)
        with pytest.raises(ValueError):
            mollify(m, Kernel(), 0.1, x, y, mask.T)

    def test_rejects_descending_columns(self):
        with pytest.raises(ValueError, match="ascending"):
            mollify(affine_mesh(), Kernel(), 0.1, np.array([0.5, 0.3]), np.array([0.2]))

    def test_invalid_mesh_raises(self):
        m = build_example("vertical_wall")
        heights = m.heights.copy()
        heights[0] += 0.25
        m = dataclasses.replace(m, heights=heights)
        with pytest.raises(MeshError):
            mollify(m, Kernel(), 0.1, np.array([0.3]), np.array([0.2]), np.zeros((1, 1), bool))


class TestRowPieces:
    """Each line's pieces against the extension itself, on lines through
    the mesh's vertices (along its horizontal edges, walls included), past
    the domain and in between."""

    @pytest.mark.parametrize("mesh", [
        *(lambda kind=kind: build_example(kind, n=3) for kind in (
            "vertical_wall", "horizontal_wall", "diagonal_wall", "four_quadrant", "laminate")),
        hanging_node_mesh, three_owner_mesh,
        lambda: refined_mesh("four_quadrant", 8, np.random.default_rng(5)),
    ], ids=["vertical_wall", "horizontal_wall", "diagonal_wall", "four_quadrant", "laminate",
            "hanging_node", "three_owner", "refined"])
    def test_pieces_reproduce_the_extension(self, mesh):
        m = mesh()
        rng = np.random.default_rng(6)
        y = np.r_[np.unique(m.vertices[:, 1]), -0.3, 1.25, rng.uniform(-0.2, 1.2, 12)]
        rule = _RowPieces(m)
        bounds, a, g = rule.pieces(y)
        assert bounds.shape == (y.size, a.shape[1] + 1) == (y.size, rule.counts(y).max() + 2)
        x = np.r_[np.linspace(-0.5, 1.5, 401), np.unique(m.vertices[:, 0]), rng.uniform(0, 1, 50)]
        # a point on a crossing belongs to the piece on its left
        piece = np.count_nonzero(bounds[:, None, 1:] < x[:, None], axis=2)
        rows = np.arange(y.size)[:, None]
        got = a[rows, piece] + g[rows, piece] * x
        want = extend_potential(m)(x[None, :], y[:, None])
        # past the domain the extension can jump at a crossing (where a wall
        # ends on a side at a slant), and there it takes the first located
        # triangle's side; quadrature nodes land on such a point with
        # probability 0
        _, y0, _, y1 = m.domain.corners()
        off = ((y < y0) | (y > y1))[:, None] & np.any(bounds[:, None, 1:] == x[:, None], axis=2)
        assert not off.all()
        np.testing.assert_allclose(got[~off], want[~off], rtol=0.0, atol=1e-8)


class TestMollifyReference:
    """The tensor-grid mollifier against the per-shift double sum over the
    loop-level extension, on lattices whose shifted points leave the
    domain."""

    @pytest.mark.parametrize(
        "domain",
        [Domain(), Domain(x0=-1.5, y0=2.0, width=3.0, height=3.0)],
        ids=["unit", "offset"],
    )
    @pytest.mark.parametrize(
        "kind",
        ["vertical_wall", "horizontal_wall", "diagonal_wall", "four_quadrant", "laminate"],
    )
    def test_matches_double_sum(self, kind, domain):
        self.assert_matches_double_sum(build_example(kind, domain=domain, n=8))

    @pytest.mark.parametrize("mesh", [hanging_node_mesh, three_owner_mesh])
    def test_matches_double_sum_non_conforming(self, mesh):
        # triangles overlap along shared edges: the first match decides
        self.assert_matches_double_sum(mesh())

    @pytest.mark.parametrize("chunk", [1, 500])
    @pytest.mark.parametrize("kind", ["diagonal_wall", "four_quadrant", "laminate"])
    def test_split_chunks_match_double_sum(self, kind, chunk, monkeypatch):
        # 1 splits every run down to single rows and every chunk down to
        # single lines and columns; 500 splits the columns of each run
        monkeypatch.setattr(recovery, "MOLLIFY_CHUNK", chunk)
        self.assert_matches_double_sum(build_example(kind, n=8))

    def test_matches_double_sum_where_a_diagonal_wall_ends(self):
        # n = 64 lattice points below the corner (0, 1) where the chord
        # x + y = 1 ends: their upper quadrature lines run above y = 1 and
        # cross x = 0, where the extension jumps by 2 (y - 1)
        m = build_example("diagonal_wall")
        lam = 1.0 / 64
        eps = DIAG_WALL_WIDTH * ModelParams(lam=lam, delta=lam ** (2.0 / 3.0)).epsilon
        nodes, _ = gauss_legendre(24)
        xs = lam * np.arange(5)
        ys = lam * np.arange(59, 64)
        assert ys[-1] + eps * nodes[-1] > 1.0 and xs[0] + eps * nodes[0] < 0.0
        got = mollify(m, Kernel(), eps, xs, ys)
        ref = double_sum_mollify(extension(m), Kernel(), eps)(xs[None, :], ys[:, None])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())

    @staticmethod
    def assert_matches_double_sum(m):
        domain = m.domain
        n = 13
        lam = domain.width / n
        xs = domain.x0 + lam * np.arange(n)
        ys = domain.y0 + lam * np.arange(n)
        eps = 3.0 * lam  # shifts reach 3 lattice steps past the boundary
        got = mollify(m, Kernel(), eps, xs, ys)
        ref = double_sum_mollify(extension(m), Kernel(), eps)(xs[None, :], ys[:, None])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())

    def test_scalar_and_empty_axes(self):
        m = build_example("four_quadrant")
        ref = double_sum_mollify(extension(m), Kernel(), 0.1)(0.3, 0.6)
        got = mollify(m, Kernel(), 0.1, 0.3, 0.6)
        assert np.shape(got) == ()
        assert float(got) == pytest.approx(ref, rel=1e-13)
        assert mollify(m, Kernel(), 0.1, np.array([0.2, 0.4]), np.array([])).shape == (0, 2)


class TestProfile:
    def test_transition_energy_calibration(self):
        total, pot, grad = profile_transition_energy()
        assert total == pytest.approx(8.0 / 3.0, rel=1e-8)
        # equipartition of the two parts
        assert pot == pytest.approx(4.0 / 3.0, rel=1e-6)
        assert grad == pytest.approx(4.0 / 3.0, rel=1e-6)


class TestBuildRecovery:
    def test_shapes_and_no_overflow(self):
        m = build_example("vertical_wall")
        p = ModelParams(lam=1.0 / 32, delta=(1.0 / 32) ** (2.0 / 3.0))
        res = build_recovery(m, p)
        assert res.spin.angles.shape == (32, 32)
        assert res.overflow_count == 0
        assert res.report.total > 0.0

    def test_chirality_locality(self):
        # away from the wall the chirality sits in the wells
        m = build_example("vertical_wall")
        p = ModelParams(lam=1.0 / 64, delta=(1.0 / 64) ** (2.0 / 3.0))
        res = build_recovery(m, p)
        w = transform(res.spin, p)[1].w.values
        assert np.all(np.abs(np.abs(w[:, :5]) - 1.0) < 0.05)
        assert np.all(np.abs(np.abs(w[:, -5:]) - 1.0) < 0.05)
        # sign change across the wall
        assert w[5, 2] * w[5, -3] < 0

    @pytest.mark.parametrize("kind", ["vertical_wall", "horizontal_wall", "diagonal_wall",
                                      "four_quadrant", "laminate"])
    def test_bond_angles_stay_within_the_helix_angle(self, kind):
        # why overflow_count is 0: the extension's partial derivatives lie in
        # {-1, 0, 1} and the rule is a convex combination of its shifts, so
        # phi_n changes by at most lam per bond and no bond angle exceeds
        # arccos(1 - delta) < pi/2, up to rounding
        m = build_example(kind)
        width = pick_width(m)
        for n in (16, 32, 64):
            lam = 1.0 / n
            for delta in (lam ** (2.0 / 3.0), 0.9, 0.99):
                p = ModelParams(lam=lam, delta=delta)
                res = build_recovery(m, p, width=width)
                psi = res.spin.angles
                steepest = max(np.abs(np.diff(psi, axis=axis)).max() for axis in (0, 1))
                assert steepest <= p.helix_angle * (1.0 + 1e-9)
                assert res.overflow_count == 0

    def test_too_coarse_raises(self):
        m = build_example("vertical_wall")
        with pytest.raises(ValueError):
            build_recovery(m, ModelParams(lam=0.5, delta=0.6))

    @pytest.mark.parametrize("mesh", [lambda: build_example("laminate", n=2), hanging_node_mesh],
                             ids=["laminate", "hanging_node"])
    def test_counts_quadrature_points(self, mesh, monkeypatch):
        # the rule's points: order^2 per lattice point of the band
        seen = capture_masks(monkeypatch)
        res = build_recovery(mesh(), ModelParams(lam=1.0 / 32, delta=(1.0 / 32) ** (2.0 / 3.0)))
        (band,) = seen
        assert res.quadrature_points == 24 * 24 * np.count_nonzero(band)
        full = 32 * 32 * 24 * 24  # the full rule
        assert 32 * 32 < res.quadrature_points < full

    def test_kink_edges_built_once(self, monkeypatch):
        # the band and the mollifier's row pieces share one edge table
        calls = []

        def counted(m):
            calls.append(m)
            return kink_edges(m)

        monkeypatch.setattr(recovery, "kink_edges", counted)
        build_recovery(build_example("laminate"), ModelParams(lam=1.0 / 16, delta=0.2))
        assert len(calls) == 1


def capture_masks(monkeypatch):
    """Record the quadrature mask of every call made through
    recovery._mollify, which mollify and build_recovery run."""
    seen = []
    original = recovery._mollify

    def recording(rule, kernel, epsilon, xs, ys, mask):
        seen.append(mask)
        return original(rule, kernel, epsilon, xs, ys, mask)

    monkeypatch.setattr(recovery, "_mollify", recording)
    return seen


def lattice_axes(m, params):
    x0, y0, _, _ = m.domain.corners()
    lam = params.lam
    nx = int(round(m.domain.width / lam))
    ny = int(round(m.domain.height / lam))
    return x0 + lam * np.arange(nx), y0 + lam * np.arange(ny)


def full_rule_phi(m, params, width):
    xs, ys = lattice_axes(m, params)
    return mollify(m, Kernel(), width * params.epsilon, xs, ys)


def two_label_points(m, xs, ys, eps, order=24):
    """Lattice points whose quadrature points, located as the extension
    locates them, lie in triangles of more than one label."""
    nodes, _ = gauss_legendre(order)
    x0, y0, x1, y1 = m.domain.corners()
    sx = np.clip((xs[:, None] + eps * nodes).ravel(), x0, x1)
    sy = np.clip((ys[:, None] + eps * nodes).ravel(), y0, y1)
    code = (np.round(m.gradients()) @ [2.0, 1.0])[m.locate(sx[None, :], sy[:, None])]
    code = code.reshape(ys.size, order, xs.size, order)
    return code.min(axis=(1, 3)) != code.max(axis=(1, 3))


BAND_MESHES = [(kind, 1) for kind in
               ("vertical_wall", "horizontal_wall", "diagonal_wall", "four_quadrant")]
BAND_MESHES += [("laminate", walls) for walls in range(1, 9)]
BAND_DOMAINS = [Domain(), Domain(x0=-1.5, y0=2.0, width=3.0, height=3.0)]


class TestQuadratureBand:
    """build_recovery runs the quadrature only on the band of lattice points
    whose kernel support box meets a wall; everywhere it matches the full
    rule."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("kind, walls", BAND_MESHES, ids=lambda v: str(v))
    @pytest.mark.parametrize("domain", BAND_DOMAINS, ids=["unit", "offset"])
    def test_matches_the_full_rule(self, domain, kind, walls, n, monkeypatch):
        m = build_example(kind, domain=domain, n=walls)
        params = SweepSchedule.default(finest_n=n, levels=1, size=domain.width).steps[0]
        width = pick_width(m)
        seen = capture_masks(monkeypatch)
        phi = build_recovery(m, params, width=width).phi
        (band,) = seen
        assert band is not None and band.any()
        full = full_rule_phi(m, params, width)
        np.testing.assert_allclose(phi, full, rtol=0.0, atol=1e-13 * np.abs(full).max())

    @pytest.mark.parametrize("kind, walls", BAND_MESHES, ids=lambda v: str(v))
    @pytest.mark.parametrize("domain", BAND_DOMAINS, ids=["unit", "offset"])
    def test_covers_every_point_that_meets_two_labels(self, domain, kind, walls, monkeypatch):
        # holds even where the kernel weight of the far nodes is too small
        # for the values to show a missed point
        m = build_example(kind, domain=domain, n=walls)
        params = SweepSchedule.default(finest_n=32, levels=1, size=domain.width).steps[0]
        width = pick_width(m)
        seen = capture_masks(monkeypatch)
        build_recovery(m, params, width=width)
        xs, ys = lattice_axes(m, params)
        needs = two_label_points(m, xs, ys, width * params.epsilon)
        assert needs.any()
        assert not np.any(needs & ~seen[0])

    def test_box_is_padded_by_the_locate_slack(self, monkeypatch):
        # the wall stops 2e-10 short of the support box of the lattice
        # column x = 0.75; the barycentric slack of locate still puts that
        # column's leftmost quadrature nodes in a triangle left of the wall
        params = ModelParams(lam=1.0 / 16, delta=(1.0 / 16) ** (2.0 / 3.0))
        nodes, _ = gauss_legendre(24)
        c = 0.75 - WALL_WIDTH * params.epsilon * np.abs(nodes).max() - 2e-10
        verts = np.array([(0.0, 0.0), (c, 0.0), (1.0, 0.0), (0.0, 1.0), (c, 1.0), (1.0, 1.0)])
        m = MeshPotential(
            vertices=verts,
            triangles=np.array([(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4)]),
            heights=verts[:, 1] + np.abs(verts[:, 0] - c),
            domain=Domain(),
        )
        seen = capture_masks(monkeypatch)
        build_recovery(m, params)
        xs, ys = lattice_axes(m, params)
        needs = two_label_points(m, xs, ys, WALL_WIDTH * params.epsilon)
        assert needs[:, 12].all()
        assert not np.any(needs & ~seen[0])

    def test_segments_box_test(self):
        edges = kink_edges(build_example("diagonal_wall"))  # x + y = 1
        xs = np.array([0.0, 0.25, 0.5])
        ys = np.array([0.0, 0.5, 0.9])
        # the box of (x, y) meets the chord where |x + y - 1| <= 2 * reach
        np.testing.assert_array_equal(
            quadrature_band(*edges, xs, ys, 0.1),
            [[False, False, False], [False, False, True], [True, True, False]],
        )
        none = np.empty((0, 2))
        assert not quadrature_band(none, none, xs, ys, 0.1).any()

    @pytest.mark.parametrize("kind", ["four_quadrant", "diagonal_wall", "laminate"])
    def test_refined_mesh_matches_per_edge_formula(self, kind):
        # a grid on part of the domain whose spacing puts box sides on grid
        # points; some edges' boxes miss it
        p, q = kink_edges(refined_mesh(kind, 16, np.random.default_rng(4)))
        xs = 0.125 + np.arange(48) / 64
        ys = 0.25 + np.arange(40) / 64
        reach = 1.0 / 32
        want = np.zeros((ys.size, xs.size), dtype=bool)
        misses = 0
        for (px, py), (qx, qy) in zip(p.tolist(), q.tolist()):
            length = np.hypot(qx - px, qy - py)
            nux, nuy = (qy - py) / length, -((qx - px) / length)
            cols = (xs >= min(px, qx) - reach) & (xs <= max(px, qx) + reach)
            rows = (ys >= min(py, qy) - reach) & (ys <= max(py, qy) + reach)
            dist = np.abs(nux * (xs[None, :] - px) + nuy * (ys[:, None] - py))
            want |= rows[:, None] & cols[None, :] & (dist <= reach * (abs(nux) + abs(nuy)))
            misses += not (cols.any() and rows.any())
        assert 0 < misses < len(p)
        assert want.any() and not want.all()
        np.testing.assert_array_equal(quadrature_band(p, q, xs, ys, reach), want)

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("make", [three_owner_mesh, hanging_node_mesh])
    def test_non_conforming_mesh_is_banded(self, make, n, monkeypatch):
        # jump_set misses the wall of these meshes; kink_edges does not.
        # build_recovery bands the lattice, covers every point whose
        # quadrature meets two labels and matches the full rule
        m = make()
        assert len(jump_set(m)) == 0
        params = SweepSchedule.default(finest_n=n, levels=1).steps[0]
        width = pick_width(m)
        seen = capture_masks(monkeypatch)
        phi = build_recovery(m, params, width=width).phi
        (band,) = seen
        assert band.any() and not band.all()
        xs, ys = lattice_axes(m, params)
        assert not np.any(two_label_points(m, xs, ys, width * params.epsilon) & ~band)
        full = full_rule_phi(m, params, width)
        np.testing.assert_allclose(phi, full, rtol=0.0, atol=1e-13 * np.abs(full).max())

    def test_invalid_mesh_raises(self):
        m = build_example("vertical_wall")
        heights = m.heights.copy()
        heights[0] += 0.25  # one gradient off the {+-1}^2 lattice
        m = dataclasses.replace(m, heights=heights)
        with pytest.raises(MeshError):
            build_recovery(m, ModelParams(lam=1.0 / 16, delta=0.2))


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
RECOVER_REFERENCES = json.loads(REFERENCE.read_text())["recover"]


class TestRecoverReferences:
    """The benchmark's recorded recover ratios (read, never written),
    recomputed as its recover jobs compute them: the limit energy,
    pick_width's width and build_recovery with a fresh kernel, on the
    schedule ending at n = 64 in three levels."""

    STEPS = {round(1.0 / p.lam): p for p in SweepSchedule.default(finest_n=64, levels=3).steps}

    def test_all_rows_present(self):
        assert len(RECOVER_REFERENCES) == 36

    @pytest.mark.parametrize("key", sorted(RECOVER_REFERENCES))
    def test_ratio_matches_the_reference(self, key):
        name, n = key.split("@")
        kind = name.rstrip("0123456789")
        m = build_example(kind, n=int(name[len(kind):] or 3))
        h_lim = limit_energy(m)
        res = build_recovery(m, self.STEPS[int(n)], kernel=Kernel(), width=pick_width(m))
        want = RECOVER_REFERENCES[key]
        assert res.overflow_count == 0
        assert abs(res.report.total / h_lim - want) <= 1e-9 * max(1.0, abs(want))


def test_build_recovery_memory_peak():
    # traced allocation peak of one recovery on 40 walls at n = 128, where
    # every lattice point is in the band and every quadrature line crosses
    # 40 walls
    m = build_example("laminate", n=40)
    params = SweepSchedule.default(finest_n=128, levels=1).steps[0]
    kernel, width = Kernel(), pick_width(m)
    tracemalloc.start()
    try:
        build_recovery(m, params, kernel=kernel, width=width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


class TestPickWidth:
    def test_diagonal_gets_diag_width(self):
        assert pick_width(build_example("diagonal_wall")) == DIAG_WALL_WIDTH

    def test_axis_gets_wall_width(self):
        assert pick_width(build_example("vertical_wall")) == WALL_WIDTH
        assert pick_width(build_example("four_quadrant")) == WALL_WIDTH

    def test_reads_the_mesh_jump_set(self, with_jump_set):
        m = build_example("diagonal_wall")
        assert pick_width(with_jump_set(m, jump_set(m))) == DIAG_WALL_WIDTH
        # no walls: the straight-wall multiplier
        assert pick_width(with_jump_set(m, rows(jump_set(m), slice(0, 0)))) == WALL_WIDTH


class TestGammaSweep:
    def test_vertical_wall_ratio_converges(self):
        m = build_example("vertical_wall")
        table = gamma_sweep(m, SweepSchedule.default(finest_n=64, levels=3))
        assert not any(r.failed for r in table.rows)
        assert table.rows[-1].ratio == pytest.approx(1.0, abs=0.08)
        assert table.rows[-1].h_limit == pytest.approx(8.0 / 3.0)

    def test_one_jump_set_per_sweep(self, jump_set_calls):
        m = build_example("diagonal_wall")
        table = gamma_sweep(m, SweepSchedule.default(finest_n=16, levels=1))
        assert len(jump_set_calls) == 1
        assert table.rows[0].h_limit == pytest.approx(16.0 / 3.0)

    def test_one_jump_set_per_mesh(self, jump_set_calls):
        # a benchmark recover row: the limit, pick_width's width and the
        # recovery field, then the recovery at its default width
        m = build_example("laminate", n=2)
        params = ModelParams(lam=1.0 / 16, delta=0.2)
        assert limit_energy(m) == pytest.approx(16.0 / 3.0)
        build_recovery(m, params, kernel=Kernel(), width=pick_width(m))
        build_recovery(m, params)
        assert jump_set_calls == [m]

    def test_csv_output(self):
        m = build_example("vertical_wall")
        table = gamma_sweep(m, SweepSchedule.default(finest_n=32, levels=2))
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("epsilon,lambda")
        assert len(lines) == 3


class TestCurlResidual:
    def test_zero_on_constant_pair(self):
        from helimag.chirality import ChiralityPair
        from helimag.lattice import ScalarGrid

        lam = 1.0 / 16
        pair = ChiralityPair(
            w=ScalarGrid.from_values(np.ones((16, 15)), lam),
            z=ScalarGrid.from_values(np.ones((15, 16)), lam),
            delta=0.1,
        )
        probe = CurlProbe(cx=0.5, cy=0.5, radius=0.3)
        assert abs(curl_residual(pair, probe)) < 1e-12

    def test_probe_support_check(self):
        from helimag.chirality import ChiralityPair
        from helimag.lattice import ScalarGrid

        lam = 1.0 / 8
        pair = ChiralityPair(
            w=ScalarGrid.from_values(np.ones((8, 7)), lam),
            z=ScalarGrid.from_values(np.ones((7, 8)), lam),
            delta=0.1,
        )
        with pytest.raises(ValueError):
            curl_residual(pair, CurlProbe(cx=0.9, cy=0.5, radius=0.3))

    def test_probe_derivatives_match_fd(self):
        probe = CurlProbe(cx=0.0, cy=0.0, radius=1.0)
        h = 1e-6
        for x, y in [(0.2, 0.1), (-0.4, 0.3), (0.5, -0.5)]:
            fd_x = (probe(x + h, y) - probe(x - h, y)) / (2 * h)
            fd_y = (probe(x, y + h) - probe(x, y - h)) / (2 * h)
            assert probe.dx(x, y) == pytest.approx(fd_x, abs=1e-6)
            assert probe.dy(x, y) == pytest.approx(fd_y, abs=1e-6)
