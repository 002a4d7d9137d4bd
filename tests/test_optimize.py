"""Boundary conditions, analytic gradient and energy minimization."""

import math
import tracemalloc
import warnings

import descent_reference
import numpy as np
import pytest

from helimag import optimize
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

    @pytest.mark.parametrize("left, right", [((1, 1), (-1, -1)), ((1, -1), (1, 1))])
    def test_two_sided_bc_rejects_different_z_signs(self, left, right):
        # no potential with gradients in {+-1}^2 meets both sides
        p = ModelParams(lam=1.0 / 16, delta=0.2)
        with pytest.raises(ValueError, match="z sign"):
            two_sided_bc(16, 16, p, left, right)

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


def _perturbed_helix_plane(n):
    # equal chirality pairs on both sides: the helix is the minimum
    lam = 1.0 / n
    p = ModelParams(lam=lam, delta=lam ** (2.0 / 3.0))
    bc = two_sided_bc(n, n, p, (1, 1), (1, 1))
    jj, ii = np.mgrid[0:n, 0:n]
    psi0 = p.helix_angle * (ii + jj) + 0.05 * np.sin(1.3 * ii + 0.7 * jj)
    return psi0, Domain(width=n * lam, height=n * lam), p, bc


def _schedule_chain(eps, sides=(1, -1)):
    """A chain of the 1-D acceptance test's epsilon schedule, sized as the
    descent benchmark sizes it: lam = (sqrt(2) eps)^(3/2), max(12, 1/lam) sites."""
    lam = (math.sqrt(2.0) * eps) ** 1.5
    return _chain(max(12, int(round(1.0 / lam))), lam, sides)


_CUT = Domain(x0=0.12, width=0.71, height=0.05)

# (problem, options): planes on a square, a non-square and an offset domain
# that cuts cells, chains on a cut interval with equal and opposite
# chiralities, a chain and a plane that converge, line searches too short to
# succeed (at the first step, and after steps were accepted), backtrack
# budgets of 2, 4 and 5 that the line search's stacks of 3 trials do not
# divide (stalls that end inside a partly consulted stack among them), a
# plane above the size that is stacked, and the shapes and caps of the
# descent benchmark's 12- and 210-site chains and 48 x 48 plane
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
    "plane_converges": (lambda: _perturbed_helix_plane(6), dict(max_iter=300)),
    "plane_backtracks2": (
        lambda: _plane(12, 12), dict(max_iter=60, max_backtracks=2, init_step=1e-3)
    ),
    "plane_backtracks4_stall": (
        lambda: _plane(12, 12), dict(max_iter=60, max_backtracks=4, init_step=1e-2)
    ),
    "plane_backtracks5": (
        lambda: _plane(14, 9), dict(max_iter=60, max_backtracks=5, init_step=1e-3)
    ),
    "chain_cut_backtracks2": (
        lambda: _chain(20, 0.05, (1, -1), _CUT),
        dict(max_iter=60, max_backtracks=2, init_step=1e-3),
    ),
    "chain_cut_backtracks4": (
        lambda: _chain(20, 0.05, (1, -1), _CUT),
        dict(max_iter=100, max_backtracks=4, init_step=1e-3),
    ),
    "chain_cut_backtracks5": (
        lambda: _chain(20, 0.05, (1, -1), _CUT), dict(max_iter=100, max_backtracks=5)
    ),
    "chain_backtracks5_stall": (
        lambda: _chain(12, 0.15, (1, -1)), dict(max_iter=400, max_backtracks=5)
    ),
    "plane_unstacked": (
        lambda: _plane(17, 17), dict(max_iter=40, max_backtracks=4, init_step=1e-3)
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
        problem = make()
        opts = MinimizeOptions(**kw)
        res = minimize_H(*problem, opts)
        assert res.objective_evals == 1 + res.accepted + res.backtracks
        # every logged iteration took a step except a last one that stopped
        assert res.accepted == len(res.log) - int(res.reason != "max_iter")
        assert res.reason in ("converged", "max_iter", "stalled")
        # stacks of k rows: the start's, then one per pass of the line
        # search, which consults at least one and at most k of its trials
        sites = problem[0].size
        k = min(optimize.BATCH_ROWS if sites <= optimize.BATCH_SITES else 1, opts.max_backtracks)
        passes, rest = divmod(res.rows_evaluated - k, k)
        assert rest == 0
        assert passes <= res.objective_evals - 1 <= k * passes

    def test_reasons(self):
        make, kw = DESCENT_CASES["chain_converges"]
        assert minimize_H(*make(), MinimizeOptions(**kw)).reason == "converged"
        make, kw = DESCENT_CASES["square"]
        assert minimize_H(*make(), MinimizeOptions(**kw)).reason == "max_iter"
        make, kw = DESCENT_CASES["plane_converges"]
        assert minimize_H(*make(), MinimizeOptions(**kw)).reason == "converged"
        for case in ("stall_later", "plane_backtracks4_stall", "chain_backtracks5_stall"):
            make, kw = DESCENT_CASES[case]
            res = minimize_H(*make(), MinimizeOptions(**kw))
            assert res.reason == "stalled" and res.accepted > 0

    @pytest.mark.parametrize("case", ["plane_backtracks4_stall", "chain_backtracks5_stall"])
    def test_stall_ends_inside_a_partly_consulted_stack(self, case):
        # budgets of 4 and 5 backtracks consult all 3 trials of a first
        # stack and 1 or 2 of a second: the search that stalled evaluated
        # 6 trials and counts only its budget
        make, kw = DESCENT_CASES[case]
        res = minimize_H(*make(), MinimizeOptions(**kw))
        before = minimize_H(*make(), MinimizeOptions(**{**kw, "max_iter": res.accepted}))
        assert (res.reason, before.reason) == ("stalled", "max_iter")
        budget = kw["max_backtracks"]
        assert res.objective_evals - before.objective_evals == budget
        assert res.backtracks - before.backtracks == budget
        assert res.rows_evaluated - before.rows_evaluated == 6

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

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    @pytest.mark.parametrize("case", [
        "square", "chain_cut_opposite", "plane_backtracks4_stall", "chain_backtracks5_stall",
    ])
    def test_any_stack_size_gives_the_same_descent(self, monkeypatch, case, k):
        make, kw = DESCENT_CASES[case]
        opts = MinimizeOptions(**kw)
        want = minimize_H(*make(), opts)
        monkeypatch.setattr(optimize, "BATCH_ROWS", k)
        got = minimize_H(*make(), opts)
        assert got.psi.tobytes() == want.psi.tobytes()
        assert (got.log, got.report, got.reason) == (want.log, want.report, want.reason)
        counts = (got.objective_evals, got.accepted, got.backtracks)
        assert counts == (want.objective_evals, want.accepted, want.backtracks)

    @pytest.mark.parametrize("problem, k", [
        (lambda: _schedule_chain(0.2), 3),  # 12 sites
        (lambda: _plane(16, 16), 3),  # 256 sites
        (lambda: _plane(17, 17), 1),
    ])
    def test_stack_size_follows_the_sites(self, problem, k):
        res = minimize_H(*problem(), MinimizeOptions(max_iter=20))
        # the start fills one stack, and each of the 20 steps took a pass
        # or more
        assert res.rows_evaluated % k == 0 and res.rows_evaluated >= k * 21
        # only stacks of one evaluate no trial that the search does not use
        assert (res.rows_evaluated == res.objective_evals) == (k == 1)

    def test_a_stall_in_a_partly_consulted_stack(self):
        # a budget of 4 backtracks consults 3 trials, then 1 of the next 3;
        # steps from the cap of 1e6 down to 1.25e5 are all far too long
        psi0, d, p, bc = _chain(12, 0.15, (1, -1))
        opts = MinimizeOptions(max_iter=5, max_backtracks=4, init_step=1e6)
        res = minimize_H(psi0, d, p, bc, opts)
        assert res.reason == "stalled" and res.accepted == 0
        assert (res.objective_evals, res.backtracks, res.rows_evaluated) == (5, 4, 9)
        assert res.log[-1][3] == 1e6

    def test_non_finite_trial_is_rejected(self):
        # before any cos/sin takes the start: numpy's invalid-value warning
        # is an error here
        for problem in (lambda: _chain(20, 0.05, (1, -1)), lambda: _plane(12, 12)):
            for value in (math.nan, math.inf):
                psi0, d, p, bc = problem()
                psi0 = psi0.copy()
                psi0[0, 5] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="finite"):
                        minimize_H(psi0, d, p, bc, MinimizeOptions(max_iter=5))


class TestInits:
    def test_linear_init_interpolates(self):
        p = ModelParams(lam=0.1, delta=0.3)
        bc = chain_bc(9, p, 1, 1)
        psi = linear_init(bc)
        # equal chiralities: the linear interpolation is the helix itself
        np.testing.assert_allclose(psi[0], p.helix_angle * np.arange(9.0), atol=1e-12)

    def test_linear_init_matches_the_row_loop(self):
        rng = np.random.default_rng(45)
        cases = []
        for side in (5, 16, 48):
            p = ModelParams(lam=1.0 / side, delta=0.3)
            for pair in (((1, 1), (-1, 1)), ((-1, -1), (1, -1)), ((1, 1), (1, 1))):
                cases.append(two_sided_bc(side, side + 3, p, *pair))
        for _ in range(250):
            ny, nx = rng.integers(1, 12, 2)
            mask = rng.random((ny, nx)) < rng.random()
            cases.append(BoundaryCondition(mask=mask, values=10.0 * rng.normal(size=(ny, nx))))
        for bc in cases:
            assert linear_init(bc).tobytes() == descent_reference.linear_init(bc).tobytes()

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
