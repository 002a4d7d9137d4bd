"""Lattice energies, the correcting factor rho and the exact double-well
decomposition, each checked against independent straight-line oracles."""

import math
import tracemalloc

import descent_reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helimag.energy import (
    EnergyReport,
    StencilEnergy,
    W,
    energy_H,
    energy_H_1d,
    mm_decomposition,
    rho,
)
from helimag.chirality import _chirality_arrays
from helimag.lattice import (
    GEOM_TOL,
    Domain,
    ModelParams,
    SpinField,
    det_sum,
    index_mask,
    spin_vectors,
)
from oracles import chain_keep


def oracle_index_set(domain, lam, nx, ny):
    """Loop reference: the indices (i, j) of an nx-by-ny grid whose closed
    cells Q(i,j), Q(i+1,j), Q(i,j+1) each lie in the domain's rectangle, its
    sides widened by GEOM_TOL times the largest coordinate magnitude."""
    x0, y0, x1, y1 = domain.corners()
    tol = GEOM_TOL * max(1.0, abs(x0) + domain.width, abs(y0) + domain.height)

    def inside(i, j):
        return (x0 - tol <= lam * i and lam * (i + 1) <= x1 + tol
                and y0 - tol <= lam * j and lam * (j + 1) <= y1 + tol)

    return {
        (i, j) for j in range(ny) for i in range(nx)
        if inside(i, j) and inside(i + 1, j) and inside(i, j + 1)
    }


def oracle_H(u, domain, params):
    """Loop reimplementation of the renormalized energy from its formula."""
    lam = u.spacing
    ux, uy = u.vectors()
    pf = 1.0 / (math.sqrt(2.0) * lam * params.delta ** 1.5)
    idx = oracle_index_set(domain, lam, u.nx, u.ny)
    total = 0.0
    for j in range(u.ny):
        for i in range(u.nx - 2):
            if (i, j) in idx:
                hx = ux[j, i + 2] - 0.5 * params.alpha * ux[j, i + 1] + ux[j, i]
                hy = uy[j, i + 2] - 0.5 * params.alpha * uy[j, i + 1] + uy[j, i]
                total += 0.5 * lam * lam * (hx * hx + hy * hy)
    for j in range(u.ny - 2):
        for i in range(u.nx):
            if (i, j) in idx:
                vx = ux[j + 2, i] - 0.5 * params.alpha * ux[j + 1, i] + ux[j, i]
                vy = uy[j + 2, i] - 0.5 * params.alpha * uy[j + 1, i] + uy[j, i]
                total += 0.5 * lam * lam * (vx * vx + vy * vy)
    return pf * total


def transposed_mm_decomposition(u, domain, params):
    """mm_decomposition with its vertical bonds run on the transposed
    arrays, stencil axis last like the horizontal ones, and transposed back
    so that det_sum reads the grid's row-major order."""
    lam, eps, delta = u.spacing, params.epsilon, params.delta
    th, tv, w, z = _chirality_arrays(*u.vectors(), delta)
    mask = index_mask(domain, lam, u.nx, u.ny)
    runs = ((th, w, mask[:, : u.nx - 2]), (tv.T, z.T, mask[: u.ny - 2, :].T))
    parts = []
    for vertical, (t, c, m) in enumerate(runs):
        t1, t2 = t[:, :-1], t[:, 1:]
        wells = W(c)
        p = (0.5 / eps) * lam * lam * (wells[:, :-1] + wells[:, 1:]) * m
        g = (eps / delta) * (2.0 * np.cos(t1 + t2) * np.sin((t2 - t1) / 2.0) ** 2) * m
        if vertical:
            p, g = p.T, g.T
        parts.append((det_sum(p), det_sum(g)))
    (ph, gh), (pv, gv) = parts
    return {"potential_part": ph + pv, "gradient_part": gh + gv,
            "horizontal": ph + gh, "vertical": pv + gv}


def random_field(rng, n, lam):
    return SpinField.from_angles(rng.uniform(-math.pi, math.pi, (n, n)), lam)


def helix(n, params, wsgn=1, zsgn=1):
    jj, ii = np.mgrid[0:n, 0:n]
    beta = params.helix_angle
    return SpinField.from_angles(beta * (wsgn * ii + zsgn * jj), params.lam)


class TestWells:
    def test_double_well_zeros(self):
        assert W(1.0) == 0.0
        assert W(-1.0) == 0.0
        assert W(0.0) == 1.0


class TestEnergyH:
    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        for n in (4, 6, 9):
            p = ModelParams(lam=1.0 / n, delta=float(rng.uniform(0.05, 0.9)))
            u = random_field(rng, n, p.lam)
            d = Domain()
            got = energy_H(u, d, p)
            want = oracle_H(u, d, p)
            assert got.total == pytest.approx(want, rel=1e-12)
            assert got.total == pytest.approx(got.horizontal + got.vertical)

    @pytest.mark.parametrize("wsgn,zsgn", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_zero_on_ground_states(self, wsgn, zsgn):
        p = ModelParams(lam=1.0 / 16, delta=0.2)
        u = helix(16, p, wsgn, zsgn)
        assert energy_H(u, Domain(), p).total == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(14)
        p = ModelParams(lam=0.1, delta=0.5)
        for _ in range(10):
            u = random_field(rng, 6, p.lam)
            assert energy_H(u, Domain(width=0.6, height=0.6), p).total >= 0.0

    def test_term_count_unit_square(self):
        # nx = ny = 4 cells: stencil indices i in {0, 1}, j in {0, 1, 2}
        # horizontally and the transpose vertically
        p = ModelParams(lam=0.25, delta=0.3)
        u = random_field(np.random.default_rng(0), 4, p.lam)
        assert energy_H(u, Domain(), p).term_count == 12

    def test_1d_matches_chain_oracle(self):
        rng = np.random.default_rng(33)
        p = ModelParams(lam=0.1, delta=0.3)
        psi = rng.uniform(-math.pi, math.pi, (1, 8))
        u = SpinField.from_angles(psi, p.lam)
        got = energy_H_1d(u, (0.0, 0.8), p)
        ux, uy = np.cos(psi[0]), np.sin(psi[0])
        want = 0.0
        for i in range(6):
            hx = ux[i + 2] - 0.5 * p.alpha * ux[i + 1] + ux[i]
            hy = uy[i + 2] - 0.5 * p.alpha * uy[i + 1] + uy[i]
            want += 0.5 * p.lam * (hx * hx + hy * hy)
        want /= math.sqrt(2.0) * p.lam * p.delta ** 1.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_1d_interval_cutting_both_ends(self):
        # sites 0..9 at lam = 0.1; the interval [0.2, 0.7] keeps the stencils
        # i = 2..5, whose cells [lam i, lam (i+2)] lie inside it
        rng = np.random.default_rng(34)
        p = ModelParams(lam=0.1, delta=0.3)
        psi = rng.uniform(-math.pi, math.pi, (1, 10))
        u = SpinField.from_angles(psi, p.lam)
        got = energy_H_1d(u, (0.2, 0.7), p)
        ux, uy = np.cos(psi[0]), np.sin(psi[0])
        want = 0.0
        for i in range(2, 6):
            hx = ux[i + 2] - 0.5 * p.alpha * ux[i + 1] + ux[i]
            hy = uy[i + 2] - 0.5 * p.alpha * uy[i + 1] + uy[i]
            want += 0.5 * p.lam * (hx * hx + hy * hy)
        want /= math.sqrt(2.0) * p.lam * p.delta ** 1.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_1d_zero_on_helix(self):
        p = ModelParams(lam=0.1, delta=0.4)
        psi = p.helix_angle * np.arange(10.0)[None, :]
        u = SpinField.from_angles(psi, p.lam)
        assert energy_H_1d(u, (0.0, 1.0), p) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("shape, domain", [
        ((9, 9), Domain(width=1.0, height=1.0)),
        ((11, 17), Domain(width=17 / 17, height=11 / 17)),
        ((17, 14), Domain(x0=0.03, y0=0.05, width=0.6, height=0.85)),
        ((2, 17), Domain(width=1.0, height=1.0)),
        ((17, 2), Domain(width=1.0, height=1.0)),
        ((9, 9), Domain(width=2.0, height=2.0)),
        # far more terms than a pairwise block holds
        ((256, 256), Domain(width=256 / 17, height=256 / 17)),
    ])
    def test_summation_order_is_the_masked_row_major_one(self, shape, domain):
        # bit-identical, not approximate: the descent references depend on it
        rng = np.random.default_rng(35)
        p = ModelParams(lam=1.0 / 17, delta=0.3)
        u = SpinField.from_angles(rng.uniform(-math.pi, math.pi, shape), p.lam)
        hor, ver, count = descent_reference.plane_energy(u, domain, p)
        assert energy_H(u, domain, p) == EnergyReport(
            total=hor + ver, horizontal=hor, vertical=ver, term_count=count
        )

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.12, 0.83), (0.3, 0.35)])
    def test_1d_sums_only_the_kept_terms(self, interval):
        rng = np.random.default_rng(36)
        p = ModelParams(lam=0.05, delta=0.3)
        u = SpinField.from_angles(rng.uniform(-math.pi, math.pi, (1, 20)), p.lam)
        assert energy_H_1d(u, interval, p) == descent_reference.chain_energy(u, interval, p)

    def test_non_finite_angle_outside_every_kept_stencil(self):
        # [0.2, 0.7] keeps stencils 2..5 of a 10-site chain: none reads site 0,
        # so the check cannot rely on NaN reaching the sum
        p = ModelParams(lam=0.1, delta=0.3)
        model = StencilEnergy((1, 10), p, Domain(x0=0.2, width=0.5))
        psi = np.zeros((1, 10))
        psi[0, 0] = math.nan
        with pytest.raises(ValueError, match="spin angles must be finite"):
            model.evaluate(psi[None])


class TestOneLatticeProblem:
    @pytest.mark.parametrize("domain", [
        Domain(width=1.0, height=0.05),
        Domain(x0=0.12, width=0.71, height=1.0),
        Domain(x0=-0.3, width=0.95, height=0.5),
    ])
    def test_energy_H_on_one_row_is_the_chain_energy(self, domain):
        rng = np.random.default_rng(47)
        p = ModelParams(lam=0.05, delta=0.3)
        u = SpinField.from_angles(rng.uniform(-math.pi, math.pi, (1, 20)), p.lam)
        interval = (domain.x0, domain.x0 + domain.width)
        total = energy_H_1d(u, interval, p)
        terms = int(np.count_nonzero(chain_keep(20, interval, p.lam)))
        assert terms > 0
        assert energy_H(u, domain, p) == EnergyReport(
            total=total, horizontal=total, vertical=0.0, term_count=terms
        )
        assert total == descent_reference.chain_energy(u, interval, p)

    @pytest.mark.parametrize("interval", [
        (0.3, 0.3), (0.5, 0.2), (-math.inf, math.inf), (0.0, math.inf), (math.nan, 1.0),
    ])
    def test_chain_interval_must_be_finite_and_not_empty(self, interval):
        # (-inf, inf) would become a domain whose x-extent ends at nan
        p = ModelParams(lam=0.05, delta=0.3)
        u = SpinField.from_angles(np.zeros((1, 20)), p.lam)
        with pytest.raises(ValueError, match="the interval must be finite and not empty"):
            energy_H_1d(u, interval, p)

    def test_a_spacing_other_than_lambda_is_rejected(self):
        # read with lambda = 0.05 the field satisfies the exact identity; with
        # lambda = 0.1 the energies would mix two lattices
        rng = np.random.default_rng(48)
        u = SpinField.from_angles(rng.uniform(-math.pi, math.pi, (12, 12)), 0.05)
        chain = SpinField.from_angles(u.angles[:1], 0.05)
        dom = Domain(width=0.6, height=0.6)
        own = ModelParams(lam=0.05, delta=0.3)
        assert energy_H(u, dom, own).total == pytest.approx(
            mm_decomposition(u, dom, own).total, rel=1e-12
        )
        other = ModelParams(lam=0.1, delta=0.3)
        message = "spacing 0.05 differs from lambda = 0.1"
        for energy in (energy_H, mm_decomposition):
            with pytest.raises(ValueError, match=message):
                energy(u, dom, other)
        with pytest.raises(ValueError, match=message):
            energy_H_1d(chain, (0.0, 0.6), other)


def _plane_model(shape, domain):
    p = ModelParams(lam=1.0 / 17, delta=0.3)
    return StencilEnergy(shape, p, domain)


def _chain_model(n, interval):
    p = ModelParams(lam=0.1, delta=0.3)
    return StencilEnergy((1, n), p, Domain(x0=interval[0], width=interval[1] - interval[0]))


# (model, site): a site inside a plane, a site that the mask of an offset
# domain leaves outside every kept stencil, a site of a chain whose interval
# keeps every stencil, and a site of a grid too small for any stencil
NON_FINITE_SITES = {
    "plane_interior": (lambda: _plane_model((9, 9), Domain(width=9 / 17, height=9 / 17)), (4, 4)),
    "plane_masked_border": (
        lambda: _plane_model((17, 14), Domain(x0=0.03, y0=0.05, width=0.6, height=0.85)),
        (16, 13),
    ),
    "chain_uncut": (lambda: _chain_model(10, (0.0, 1.0)), (0, 0)),
    "grid_2x2": (lambda: _plane_model((2, 2), Domain()), (1, 0)),
}

# (model maker, shape) for reusing states: every kind of mask
REUSE_CASES = {
    "plane_unmasked": (lambda: _plane_model((9, 9), Domain(width=2.0, height=2.0)), (9, 9)),
    "plane_offset": (
        lambda: _plane_model((17, 14), Domain(x0=0.03, y0=0.05, width=0.6, height=0.85)),
        (17, 14),
    ),
    "plane_two_rows": (lambda: _plane_model((2, 17), Domain()), (2, 17)),
    "chain_uncut": (lambda: _chain_model(10, (0.0, 1.0)), (1, 10)),
    "chain_cut": (lambda: _chain_model(10, (0.2, 0.7)), (1, 10)),
}


class TestStencilWorkspace:
    def test_masked_border_site_is_outside_every_kept_stencil(self):
        mask = index_mask(Domain(x0=0.03, y0=0.05, width=0.6, height=0.85), 1.0 / 17, 14, 17)
        # row 16 / column 13 is read by horizontal stencil 11 and vertical stencil 14
        assert not mask[16, 11] and not mask[14, 13]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("case", sorted(NON_FINITE_SITES))
    @pytest.mark.parametrize("reuse", [False, True], ids=["new", "reused"])
    def test_non_finite_angle_is_rejected(self, case, value, reuse):
        make, site = NON_FINITE_SITES[case]
        model = make()
        psi = np.random.default_rng(3).uniform(-math.pi, math.pi, model.shape)
        state = model.evaluate(psi[None]) if reuse else None
        psi[site] = value
        # a reused state reads the angle before the check
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="spin angles must be finite"):
            model.evaluate(psi[None], into=state)

    def test_reused_cut_chain_scans_the_angles(self):
        # [0.2, 0.7] keeps stencils 2..5 of a 10-site chain: none reads site 0
        model = _chain_model(10, (0.2, 0.7))
        psi = np.zeros((1, 10))
        state = model.evaluate(psi[None])
        psi[0, 0] = math.nan
        with pytest.raises(ValueError, match="spin angles must be finite"):
            model.evaluate(psi[None], into=state)

    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_reused_state_matches_a_new_one(self, case):
        make, shape = REUSE_CASES[case]
        model = make()
        rng = np.random.default_rng(41)
        first, second = (rng.uniform(-math.pi, math.pi, shape) for _ in range(2))
        reused = model.evaluate(second[None], into=model.evaluate(first[None]))
        new = make().evaluate(second[None])
        assert reused.parts == new.parts
        assert [h.tobytes() for h in reused.stencils] == [h.tobytes() for h in new.stencils]
        assert model.gradient(reused).tobytes() == make().gradient(new).tobytes()

    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_rows_of_a_stack_match_stacks_of_one(self, case):
        # a row's energies and gradient do not depend on the stack it is in
        make, shape = REUSE_CASES[case]
        model = make()
        psi = np.random.default_rng(44).uniform(-math.pi, math.pi, (4,) + shape)
        stack = model.evaluate(psi)
        for row in range(4):
            one = make().evaluate(psi[row : row + 1])
            assert [t[row] for t in stack.parts] == [t[0] for t in one.parts]
            assert model.report(stack, row) == model.report(one)
            assert model.gradient(stack, row).tobytes() == make().gradient(one).tobytes()

    def test_an_unstacked_array_is_rejected(self):
        make, shape = REUSE_CASES["plane_offset"]
        with pytest.raises(ValueError, match="stack"):
            make().evaluate(np.zeros(shape))

    def test_gradient_is_a_new_array(self):
        make, shape = REUSE_CASES["plane_offset"]
        model = make()
        psi = np.random.default_rng(42).uniform(-math.pi, math.pi, shape)
        state = model.evaluate(psi[None])
        g = model.gradient(state)
        want = g.copy()
        model.gradient(model.evaluate(psi[None] + 1.0))
        assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, domain", [
        ((9, 9), Domain()), ((17, 14), Domain(x0=0.03, y0=0.05, width=0.6, height=0.85)),
    ])
    def test_shared_spin_vectors(self, shape, domain):
        p = ModelParams(lam=1.0 / 17, delta=0.3)
        u = SpinField.from_angles(np.random.default_rng(43).uniform(-3, 3, shape), p.lam)
        cs = spin_vectors(u.angles)
        assert energy_H(u, domain, p, cs=cs) == energy_H(u, domain, p)
        assert mm_decomposition(u, domain, p, cs=cs) == mm_decomposition(u, domain, p)

    def test_one_shot_energy_memory(self):
        # the peak of energy_H when every array was allocated per step
        # (5,799,128 bytes with these inputs) may not grow by more than 10%
        n = 256
        p = ModelParams(lam=1.0 / n, delta=0.3)
        u = SpinField.from_angles(np.random.default_rng(1).uniform(-3, 3, (n, n)), p.lam)
        energy_H(u, Domain(), p)
        tracemalloc.start()
        try:
            energy_H(u, Domain(), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 5_799_128


class TestRho:
    def test_value_at_equal_angles(self):
        # the defining quotient is 0/0 on the diagonal; the definition fixes
        # the value 1 there by convention
        assert rho(0.3, 0.3, "definition") == 1.0
        assert rho(-2.0, -2.0, "definition") == 1.0

    def test_antipodal_pair(self):
        # numerator 2, denominator 4 at (pi/2, -pi/2)
        assert rho(math.pi / 2, -math.pi / 2, "definition") == pytest.approx(0.5)
        assert rho(math.pi / 2, -math.pi / 2, "closed_form") == pytest.approx(0.5)

    @given(
        st.floats(-math.pi, math.pi, allow_nan=False),
        st.floats(-math.pi, math.pi, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    # differences near 1e-160 square to subnormals in the definition
    @example(0.0, 4.4e-160)
    @example(0.0, 8.3e-160)
    def test_methods_agree(self, t1, t2):
        if t1 == t2 or abs(math.cos((t1 + t2) / 4.0)) < 1e-6:
            return
        a = rho(t1, t2, "definition")
        b = rho(t1, t2, "closed_form")
        assert abs(a - b) <= 1e-12 * (1.0 + abs(b))

    def test_closed_form_raises_at_corner(self):
        with pytest.raises((ValueError, FloatingPointError, ZeroDivisionError)):
            rho(math.pi, math.pi, "closed_form")
        with pytest.raises((ValueError, FloatingPointError, ZeroDivisionError)):
            rho(-math.pi, -math.pi, "closed_form")

    @pytest.mark.parametrize("corner", [math.pi, -math.pi])
    def test_definition_is_one_at_corner(self, corner):
        # (pi, pi) and (-pi, -pi) lie on the diagonal, where the definition
        # takes the value 1 although the closed form is singular
        assert rho(corner, corner, "definition") == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        t1 = rng.uniform(-3.0, 3.0, 100)
        t2 = rng.uniform(-3.0, 3.0, 100)
        np.testing.assert_allclose(rho(t1, t2), rho(t2, t1), rtol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rho(4.0, 0.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            rho(0.1, 0.2, "series")

    def test_grid_minimum_finite(self):
        t = np.linspace(-math.pi, math.pi, 201)
        t1, t2 = np.meshgrid(t, t)
        vals = rho(t1, t2, "definition")
        assert np.all(np.isfinite(vals))


class TestDecomposition:
    def test_exact_identity_random_fields(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            p = ModelParams(lam=1.0 / n, delta=float(rng.uniform(0.05, 0.9)))
            u = random_field(rng, n, p.lam)
            d = Domain()
            a = energy_H(u, d, p)
            b = mm_decomposition(u, d, p)
            assert abs(a.total - b.total) <= 1e-9 * (1.0 + abs(a.total))
            assert abs(a.horizontal - b.horizontal) <= 1e-9 * (1.0 + abs(a.horizontal))
            assert abs(a.vertical - b.vertical) <= 1e-9 * (1.0 + abs(a.vertical))

    def test_parts_reported(self):
        p = ModelParams(lam=0.125, delta=0.3)
        u = random_field(np.random.default_rng(1), 8, p.lam)
        rep = mm_decomposition(u, Domain(), p)
        assert rep.potential_part is not None and rep.gradient_part is not None
        assert rep.total == pytest.approx(rep.potential_part + rep.gradient_part)
        assert rep.potential_part >= 0.0

    @pytest.mark.parametrize("kind", ["random", "helical", "smooth"])
    @pytest.mark.parametrize("shape, domain", [
        ((9, 9), Domain()),
        ((7, 12), Domain()),
        ((12, 7), Domain(width=0.5, height=0.9)),
        ((2, 11), Domain()),
        ((11, 2), Domain()),
        ((2, 2), Domain()),
        ((17, 14), Domain(x0=0.03, y0=0.05, width=0.6, height=0.85)),
        ((13, 16), Domain(x0=-0.2, y0=0.1, width=0.7, height=0.5)),
    ])
    def test_grid_orientation_matches_transposed_runs(self, kind, shape, domain):
        # bit-identical: the same values summed in the same row-major order
        rng = np.random.default_rng(78)
        p = ModelParams(lam=1.0 / 17, delta=0.3)
        jj, ii = np.indices(shape)
        if kind == "random":
            psi = rng.uniform(-math.pi, math.pi, shape)
        elif kind == "helical":
            psi = p.helix_angle * (ii - jj) + rng.normal(0.0, 0.05, shape)
        else:
            psi = 2.0 * np.sin(0.4 * ii) * np.cos(0.3 * jj)
        u = SpinField.from_angles(psi, p.lam)
        rep = mm_decomposition(u, domain, p)
        want = transposed_mm_decomposition(u, domain, p)
        got = {k: getattr(rep, k) for k in want}
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    def test_oracle_potential_part(self):
        # potential part recomputed from W(w) per stencil, horizontal only
        from helimag.chirality import transform

        rng = np.random.default_rng(4)
        p = ModelParams(lam=0.25, delta=0.4)
        u = random_field(rng, 4, p.lam)
        d = Domain()
        _, pair = transform(u, p)
        w = pair.w.values
        z = pair.z.values
        pf = 0.5 * p.lam ** 2 / p.epsilon
        idx = oracle_index_set(d, p.lam, u.nx, u.ny)
        want = 0.0
        for j in range(4):
            for i in range(2):
                if (i, j) in idx:
                    want += pf * (W(w[j, i]) + W(w[j, i + 1]))
        for j in range(2):
            for i in range(4):
                if (i, j) in idx:
                    want += pf * (W(z[j, i]) + W(z[j + 1, i]))
        rep = mm_decomposition(u, d, p)
        assert rep.potential_part == pytest.approx(want, rel=1e-10)
