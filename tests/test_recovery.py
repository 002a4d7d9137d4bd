"""Extension, mollification and the recovery construction."""

import math

import numpy as np
import pytest
from mesh_reference import double_sum_mollify, extension

from helimag.continuum import build_example, jump_set
from helimag.lattice import Domain, ModelParams
from helimag.recovery import (
    DIAG_WALL_WIDTH,
    MOLLIFY_CHUNK,
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
    optimal_profile_1d,
    pick_width,
    profile_transition_energy,
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

    def test_rejects_zero_profile(self):
        with pytest.raises(ValueError):
            Kernel(profile=lambda t: np.zeros_like(np.asarray(t, dtype=float)))


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
        np.testing.assert_allclose(ext(x, y), m.evaluate(x, y), atol=1e-12)

    def test_lipschitz_sqrt2(self):
        m = build_example("four_quadrant")
        ext = extend_potential(m)
        rng = np.random.default_rng(2)
        p = rng.uniform(-1.0, 2.0, (200, 2))
        q = rng.uniform(-1.0, 2.0, (200, 2))
        lhs = np.abs(ext(p[:, 0], p[:, 1]) - ext(q[:, 0], q[:, 1]))
        rhs = math.sqrt(2.0) * np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1])
        assert np.all(lhs <= rhs + 1e-10)

    def test_continuous_across_boundary(self):
        m = build_example("vertical_wall")
        ext = extend_potential(m)
        y = np.linspace(0.1, 0.9, 9)
        np.testing.assert_allclose(
            ext(np.full_like(y, -1e-9), y), ext(np.zeros_like(y), y), atol=1e-7
        )


class TestMollify:
    def test_preserves_affine(self):
        # mollifying an affine function reproduces it exactly
        sm = mollify(lambda x, y: 2.0 * x - y + 0.5, Kernel(), 0.1)
        x = np.array([0.3, 0.5])
        y = np.array([0.2, 0.8])
        np.testing.assert_allclose(
            sm(x, y), 2.0 * x[None, :] - y[:, None] + 0.5, atol=1e-10
        )

    def test_quadrature_order_convergence(self):
        # kinked input: error decays algebraically toward a high-order
        # reference
        m = build_example("vertical_wall")
        ext = extend_potential(m)
        x = np.linspace(0.1, 0.9, 13)
        y = np.full_like(x, 0.5)
        ref = mollify(ext, Kernel(), 0.05, order=96)(x, y)
        errs = [
            np.abs(mollify(ext, Kernel(), 0.05, order=o)(x, y) - ref).max()
            for o in (16, 24, 48)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] < 1e-4

    def test_smooths_the_kink(self):
        m = build_example("vertical_wall")
        ext = extend_potential(m)
        sm = mollify(ext, Kernel(), 0.1)
        # strictly above the kink value at the wall
        assert sm(0.5, 0.5) > ext(0.5, 0.5) + 1e-4


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
        m = build_example(kind, domain=domain, n=8)
        n = 13
        lam = domain.width / n
        xs = domain.x0 + lam * np.arange(n)
        ys = domain.y0 + lam * np.arange(n)
        eps = 3.0 * lam  # shifts reach 3 lattice steps past the boundary
        # several chunks, the last one partial
        assert MOLLIFY_CHUNK // (24 * 24 * n) < n
        got = mollify(extend_potential(m), Kernel(), eps)(xs, ys)
        ref = double_sum_mollify(extension(m), Kernel(), eps)(xs[None, :], ys[:, None])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())

    def test_scalar_and_empty_axes(self):
        m = build_example("four_quadrant")
        sm = mollify(extend_potential(m), Kernel(), 0.1)
        ref = double_sum_mollify(extension(m), Kernel(), 0.1)(0.3, 0.6)
        assert np.shape(sm(0.3, 0.6)) == ()
        assert float(sm(0.3, 0.6)) == pytest.approx(ref, rel=1e-13)
        assert sm(np.array([0.2, 0.4]), np.array([])).shape == (0, 2)


class TestProfile:
    def test_tanh_profile(self):
        assert optimal_profile_1d(0.0) == 0.0
        assert optimal_profile_1d(50.0) == pytest.approx(1.0)
        np.testing.assert_allclose(optimal_profile_1d(np.array([-50.0])), [-1.0])

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
        w = res.pair.w.values
        assert np.all(np.abs(np.abs(w[:, :5]) - 1.0) < 0.05)
        assert np.all(np.abs(np.abs(w[:, -5:]) - 1.0) < 0.05)
        # sign change across the wall
        assert w[5, 2] * w[5, -3] < 0

    def test_too_coarse_raises(self):
        m = build_example("vertical_wall")
        with pytest.raises(ValueError):
            build_recovery(m, ModelParams(lam=0.5, delta=0.6))


class TestPickWidth:
    def test_diagonal_gets_diag_width(self):
        assert pick_width(build_example("diagonal_wall")) == DIAG_WALL_WIDTH

    def test_axis_gets_wall_width(self):
        assert pick_width(build_example("vertical_wall")) == WALL_WIDTH
        assert pick_width(build_example("four_quadrant")) == WALL_WIDTH

    def test_segments_keyword(self):
        m = build_example("diagonal_wall")
        assert pick_width(m, segments=jump_set(m)) == DIAG_WALL_WIDTH
        # no walls: the straight-wall multiplier
        assert pick_width(m, segments=[]) == WALL_WIDTH


class TestGammaSweep:
    def test_vertical_wall_ratio_converges(self):
        m = build_example("vertical_wall")
        table = gamma_sweep(m, SweepSchedule.default(finest_n=64, levels=3))
        assert not any(r.failed for r in table.rows)
        assert table.rows[-1].ratio == pytest.approx(1.0, abs=0.08)
        assert table.rows[-1].h_limit == pytest.approx(8.0 / 3.0)

    def test_one_jump_set_per_sweep(self, monkeypatch):
        from helimag import continuum, recovery

        calls = []

        def counted(m):
            calls.append(m)
            return jump_set(m)

        for mod in (continuum, recovery):
            monkeypatch.setattr(mod, "jump_set", counted)
        m = build_example("diagonal_wall")
        table = gamma_sweep(m, SweepSchedule.default(finest_n=16, levels=1))
        assert len(calls) == 1
        assert table.rows[0].h_limit == pytest.approx(16.0 / 3.0)

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
