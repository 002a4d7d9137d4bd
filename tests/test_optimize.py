"""Boundary conditions, analytic gradient and energy minimization."""

import math
import tracemalloc

import descent_reference
import numpy as np
import pytest

from helimag.energy import energy_H, energy_H_1d
from helimag.lattice import Domain, ModelParams, SpinField
from helimag.optimize import (
    BoundaryCondition,
    MinimizeOptions,
    brute_force_1d,
    chain_bc,
    energy_gradient,
    linear_init,
    log_to_csv,
    minimize_H,
    profile_init,
    two_sided_bc,
)


def fd_gradient(psi, domain, params, lam, h=1e-6):
    g = np.zeros_like(psi)
    for j in range(psi.shape[0]):
        for i in range(psi.shape[1]):
            for s, sign in ((h, 1.0), (-h, -1.0)):
                p = psi.copy()
                p[j, i] += s
                u = SpinField.from_angles(p, lam)
                if psi.shape[0] == 1:
                    e = energy_H_1d(u, (domain.x0, domain.x0 + domain.width), params)
                else:
                    e = energy_H(u, domain, params).total
                g[j, i] += sign * e
    return g / (2.0 * h)


class TestBoundaryConditions:
    def test_chain_bc_freezes_four_sites(self):
        p = ModelParams(lam=0.1, delta=0.3)
        bc = chain_bc(10, p, 1, -1)
        assert bc.mask.sum() == 4
        assert bc.mask[0, 0] and bc.mask[0, 1]
        assert bc.mask[0, -2] and bc.mask[0, -1]

    def test_chain_bc_equal_chirality_is_one_helix(self):
        p = ModelParams(lam=0.1, delta=0.3)
        bc = chain_bc(8, p, 1, 1)
        beta = p.helix_angle
        want = beta * np.arange(8.0)
        np.testing.assert_allclose(bc.values[0][bc.mask[0]], want[bc.mask[0]])

    def test_chain_bc_validation(self):
        p = ModelParams(lam=0.1, delta=0.3)
        with pytest.raises(ValueError):
            chain_bc(4, p, 1, 1)
        with pytest.raises(ValueError):
            chain_bc(8, p, 2, 1)

    def test_two_sided_bc_equal_pairs_ground_state(self):
        # identical chirality pairs on both sides: the helix itself
        # satisfies both layers and has zero energy
        p = ModelParams(lam=1.0 / 16, delta=0.2)
        bc = two_sided_bc(16, 16, p, (1, 1), (1, 1))
        beta = p.helix_angle
        jj, ii = np.mgrid[0:16, 0:16]
        helix = beta * (ii + jj).astype(float)
        np.testing.assert_allclose(bc.apply(helix), helix, atol=1e-12)

    def test_apply_only_touches_frozen(self):
        bc = BoundaryCondition(
            mask=np.array([[True, False, True]]),
            values=np.array([[1.0, 2.0, 3.0]]),
        )
        out = bc.apply(np.array([[9.0, 9.0, 9.0]]))
        np.testing.assert_allclose(out, [[1.0, 9.0, 3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BoundaryCondition(mask=np.zeros((1, 3), bool), values=np.zeros((1, 4)))


class TestGradient:
    def test_matches_fd_2d(self):
        rng = np.random.default_rng(6)
        p = ModelParams(lam=1.0 / 6, delta=0.3)
        d = Domain()
        for _ in range(5):
            psi = rng.uniform(-math.pi, math.pi, (6, 6))
            g = energy_gradient(psi, d, p, None, p.lam)
            fd = fd_gradient(psi, d, p, p.lam)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    def test_matches_fd_1d(self):
        rng = np.random.default_rng(7)
        p = ModelParams(lam=0.1, delta=0.4)
        d = Domain(width=0.8, height=0.1)
        psi = rng.uniform(-math.pi, math.pi, (1, 8))
        g = energy_gradient(psi, d, p, None, p.lam)
        fd = fd_gradient(psi, d, p, p.lam)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    def test_matches_fd_1d_cut_interval(self):
        # the interval [0.2, 0.7] cuts stencils at both ends of a 10-site chain
        rng = np.random.default_rng(8)
        p = ModelParams(lam=0.1, delta=0.4)
        d = Domain(x0=0.2, width=0.5, height=0.1)
        psi = rng.uniform(-math.pi, math.pi, (1, 10))
        g = energy_gradient(psi, d, p, None, p.lam)
        fd = fd_gradient(psi, d, p, p.lam)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)
        # sites outside every kept stencil do not move the energy
        assert np.all(g[0, [0, 1, 8, 9]] == 0.0)

    @pytest.mark.parametrize("shape, domain", [
        ((9, 9), Domain(width=9 / 17, height=9 / 17)),
        ((11, 17), Domain(width=1.0, height=11 / 17)),
        ((17, 14), Domain(x0=0.03, y0=0.05, width=0.6, height=0.85)),
        ((1, 17), Domain(width=1.0, height=1 / 17)),
        ((1, 17), Domain(x0=0.12, width=0.71, height=1 / 17)),
    ], ids=["square", "non_square", "offset_cut", "chain", "chain_cut"])
    def test_bit_identical_to_loop_reference(self, shape, domain):
        rng = np.random.default_rng(38)
        p = ModelParams(lam=1.0 / 17, delta=0.3)
        psi = rng.uniform(-math.pi, math.pi, shape)
        g = energy_gradient(psi, domain, p, None, p.lam)
        assert g.tobytes() == descent_reference.gradient(psi, domain, p, None, p.lam).tobytes()

    def test_zero_at_frozen_sites(self):
        p = ModelParams(lam=0.1, delta=0.3)
        bc = chain_bc(8, p, 1, -1)
        psi = linear_init(bc)
        g = energy_gradient(psi, Domain(width=0.8, height=0.1), p, bc, p.lam)
        assert np.all(g[bc.mask] == 0.0)

    def test_zero_on_ground_state(self):
        p = ModelParams(lam=1.0 / 8, delta=0.2)
        jj, ii = np.mgrid[0:8, 0:8]
        psi = p.helix_angle * (ii - jj).astype(float)
        g = energy_gradient(psi, Domain(), p, None, p.lam)
        np.testing.assert_allclose(g, 0.0, atol=1e-10)


class TestMinimize:
    def test_ground_state_input_converges_immediately(self):
        p = ModelParams(lam=1.0 / 12, delta=0.2)
        bc = two_sided_bc(12, 12, p, (1, 1), (1, 1))
        jj, ii = np.mgrid[0:12, 0:12]
        psi0 = p.helix_angle * (ii + jj).astype(float)
        res = minimize_H(psi0, Domain(), p, bc)
        assert res.converged
        assert res.report.total == pytest.approx(0.0, abs=1e-12)

    def test_descent_monotone(self):
        p = ModelParams(lam=0.05, delta=0.05 ** (2.0 / 3.0))
        n = 20
        bc = chain_bc(n, p, 1, -1)
        d = Domain(width=n * p.lam, height=p.lam)
        res = minimize_H(linear_init(bc), d, p, bc, MinimizeOptions(max_iter=200))
        energies = [e for _, e, _, _ in res.log]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))

    def test_respects_boundary(self):
        p = ModelParams(lam=0.05, delta=0.3)
        bc = chain_bc(12, p, 1, -1)
        d = Domain(width=0.6, height=0.05)
        res = minimize_H(linear_init(bc), d, p, bc, MinimizeOptions(max_iter=50))
        np.testing.assert_allclose(res.psi[bc.mask], bc.values[bc.mask])

    def test_1d_term_count_of_cut_interval(self):
        # [0.2, 0.7] keeps 4 of the 8 stencils of a 10-site chain
        p = ModelParams(lam=0.1, delta=0.3)
        bc = chain_bc(10, p, 1, -1)
        d = Domain(x0=0.2, width=0.5, height=0.1)
        res = minimize_H(linear_init(bc), d, p, bc, MinimizeOptions(max_iter=5))
        assert res.report.term_count == 4
        full = Domain(width=1.0, height=0.1)
        res = minimize_H(linear_init(bc), full, p, bc, MinimizeOptions(max_iter=5))
        assert res.report.term_count == 8

    @pytest.mark.parametrize("cap", [0, -1])
    def test_iteration_cap_below_one(self, cap):
        with pytest.raises(ValueError, match="max_iter"):
            MinimizeOptions(max_iter=cap)

    def test_log_csv(self):
        csv = log_to_csv([(0, 1.0, 0.5, 1.0), (1, 0.9, 0.4, 2.0)])
        lines = csv.strip().split("\n")
        assert lines[0] == "iter,energy,grad_norm,step"
        assert len(lines) == 3

    @pytest.mark.parametrize("field, value", [
        ("init_step", 0.0), ("init_step", -1.0), ("init_step", math.nan),
        ("max_backtracks", 0), ("max_backtracks", -3),
    ])
    def test_options_that_would_do_nothing_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MinimizeOptions(**{field: value})


def _plane(nx, ny, domain=None, pair=((1, 1), (-1, 1))):
    lam = 1.0 / max(nx, ny)
    p = ModelParams(lam=lam, delta=lam ** (2.0 / 3.0))
    bc = two_sided_bc(nx, ny, p, *pair)
    d = domain if domain is not None else Domain(width=nx * lam, height=ny * lam)
    return linear_init(bc), d, p, bc


def _chain(n, lam, sides, domain=None):
    p = ModelParams(lam=lam, delta=lam ** (2.0 / 3.0))
    bc = chain_bc(n, p, *sides)
    d = domain if domain is not None else Domain(width=n * lam, height=lam)
    return profile_init(n, p, *sides), d, p, bc


def _perturbed_helix(n, lam, domain=None):
    psi0, d, p, bc = _chain(n, lam, (1, 1), domain)
    return psi0 + 0.05 * np.sin(np.arange(n)), d, p, bc


def _schedule_chain(eps, sides=(1, -1)):
    """A chain of the 1-D acceptance test's epsilon schedule, sized as the
    descent benchmark sizes it: lam = (sqrt(2) eps)^(3/2), max(12, 1/lam) sites."""
    lam = (math.sqrt(2.0) * eps) ** 1.5
    return _chain(max(12, int(round(1.0 / lam))), lam, sides)


# (problem, options): planes on a square, a non-square and an offset domain
# that cuts cells, chains on a cut interval with equal and opposite
# chiralities, a chain that converges, line searches too short to succeed
# (at the first step, and after steps were accepted), and the shapes and
# caps of the descent benchmark's 12- and 210-site chains and 48 x 48 plane
DESCENT_CASES = {
    "square": (lambda: _plane(12, 12), dict(max_iter=60)),
    "non_square": (lambda: _plane(14, 9), dict(max_iter=60)),
    "offset_cut": (
        lambda: _plane(12, 12, Domain(x0=0.03, y0=0.05, width=0.8, height=0.7)),
        dict(max_iter=60),
    ),
    "chain_cut_equal": (
        lambda: _perturbed_helix(20, 0.05, Domain(x0=0.12, width=0.71, height=0.05)),
        dict(max_iter=150),
    ),
    "chain_cut_opposite": (
        lambda: _chain(20, 0.05, (1, -1), Domain(x0=0.12, width=0.71, height=0.05)),
        dict(max_iter=150),
    ),
    "chain_converges": (lambda: _perturbed_helix(12, 0.15), dict(max_iter=3000)),
    "stall_first": (lambda: _chain(20, 0.05, (1, -1)), dict(max_iter=200, max_backtracks=1)),
    "stall_later": (
        lambda: _plane(12, 12),
        dict(max_iter=200, max_backtracks=1, init_step=1e-3),
    ),
    "bench_chain12": (lambda: _schedule_chain(0.2), dict(max_iter=400)),
    "bench_chain210": (lambda: _schedule_chain(0.02, (-1, 1)), dict(max_iter=300)),
    "bench_plane48": (lambda: _plane(48, 48), dict(max_iter=15)),
}


class TestDescentRecord:
    @pytest.mark.parametrize("case", sorted(DESCENT_CASES))
    def test_bit_identical_to_loop_reference(self, case):
        make, kw = DESCENT_CASES[case]
        psi0, d, p, bc = make()
        opts = MinimizeOptions(**kw)
        psi, report, log, converged, stalled = descent_reference.minimize(psi0, d, p, bc, opts)
        res = minimize_H(psi0, d, p, bc, opts)
        assert res.psi.tobytes() == psi.tobytes()
        assert res.log == log
        assert res.report == report
        assert (res.converged, res.stalled) == (converged, stalled)

    @pytest.mark.parametrize("case", sorted(DESCENT_CASES))
    def test_counts_add_up(self, case):
        make, kw = DESCENT_CASES[case]
        res = minimize_H(*make(), MinimizeOptions(**kw))
        assert res.objective_evals == 1 + res.accepted + res.backtracks
        # every logged iteration took a step except a last one that stopped
        assert res.accepted == len(res.log) - int(res.reason != "max_iter")
        assert res.reason in ("converged", "max_iter", "stalled")

    def test_reasons(self):
        make, kw = DESCENT_CASES["chain_converges"]
        assert minimize_H(*make(), MinimizeOptions(**kw)).reason == "converged"
        make, kw = DESCENT_CASES["square"]
        assert minimize_H(*make(), MinimizeOptions(**kw)).reason == "max_iter"
        make, kw = DESCENT_CASES["stall_later"]
        res = minimize_H(*make(), MinimizeOptions(**kw))
        assert res.reason == "stalled" and res.accepted > 0

    @pytest.mark.parametrize("problem, cap, counts", [
        # (objective evaluations, accepted, backtracks) of the descent that
        # evaluated the energy with one energy_H/energy_H_1d call per trial
        (lambda: _plane(16, 16), 80, (164, 80, 83)),
        (lambda: _chain(20, 0.05, (1, -1)), 200, (407, 200, 206)),
    ])
    def test_counts_pinned(self, problem, cap, counts):
        res = minimize_H(*problem(), MinimizeOptions(max_iter=cap))
        assert (res.objective_evals, res.accepted, res.backtracks) == counts

    def test_benchmark_chain_sizes(self):
        assert _schedule_chain(0.2)[0].shape == (1, 12)
        assert _schedule_chain(0.02)[0].shape == (1, 210)

    def test_memory_on_a_large_plane(self):
        # the peak of minimize_H when every trial allocated its arrays
        # (3,394,416 bytes with these inputs) may not grow by more than 10%
        problem = _plane(128, 128)
        opts = MinimizeOptions(max_iter=5)
        minimize_H(*problem, opts)
        tracemalloc.start()
        try:
            minimize_H(*problem, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 3_394_416

    def test_non_finite_trial_is_rejected(self):
        psi0, d, p, bc = _chain(20, 0.05, (1, -1))
        psi0 = psi0.copy()
        psi0[0, 5] = math.nan
        with pytest.raises(ValueError, match="finite"):
            minimize_H(psi0, d, p, bc, MinimizeOptions(max_iter=5))


class TestInits:
    def test_linear_init_interpolates(self):
        p = ModelParams(lam=0.1, delta=0.3)
        bc = chain_bc(9, p, 1, 1)
        psi = linear_init(bc)
        # equal chiralities: the linear interpolation is the helix itself
        np.testing.assert_allclose(psi[0], p.helix_angle * np.arange(9.0), atol=1e-12)

    def test_profile_init_meets_boundary(self):
        p = ModelParams(lam=0.02, delta=0.02 ** (2.0 / 3.0))
        n = 40
        bc = chain_bc(n, p, 1, -1)
        psi = profile_init(n, p, 1, -1)
        np.testing.assert_allclose(
            psi[0, [0, n - 2]], bc.values[0, [0, n - 2]], atol=1e-10
        )

    def test_profile_init_beats_linear_on_walls(self):
        p = ModelParams(lam=0.02, delta=0.02 ** (2.0 / 3.0))
        n = 60
        bc = chain_bc(n, p, 1, -1)
        d = Domain(width=n * p.lam, height=p.lam)

        def e(psi):
            u = SpinField.from_angles(bc.apply(psi), p.lam)
            return energy_H_1d(u, (0.0, n * p.lam), p)

        assert e(profile_init(n, p, 1, -1)) < e(linear_init(bc))


class TestBruteForce:
    def test_matches_minimize(self):
        p = ModelParams(lam=0.2, delta=0.4)
        n = 7
        bc = chain_bc(n, p, 1, -1)
        e_min, best, slack = brute_force_1d(n, 24, p, bc)
        d = Domain(width=n * p.lam, height=p.lam)
        res = minimize_H(linear_init(bc), d, p, bc, MinimizeOptions(max_iter=2000))
        assert res.report.total <= e_min + slack + 1e-12

    def test_zero_free_sites(self):
        p = ModelParams(lam=0.2, delta=0.4)
        bc = chain_bc(5, p, 1, 1)
        bc.mask[0, 2] = True
        bc.values[0, 2] = 2.0 * p.helix_angle
        e, psi, slack = brute_force_1d(5, 8, p, bc)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert slack == 0.0

    def test_budget_guard(self):
        p = ModelParams(lam=0.2, delta=0.4)
        bc = BoundaryCondition(mask=np.zeros((1, 12), bool), values=np.zeros((1, 12)))
        with pytest.raises(ValueError):
            brute_force_1d(12, 10, p, bc)
