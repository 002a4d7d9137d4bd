"""Order-parameter transform and vorticity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helimag.chirality import (
    ChiralityPair,
    transform,
    vorticity,
)
from helimag.lattice import ModelParams, ScalarGrid, SpinField

angle = st.floats(-math.pi, math.pi, allow_nan=False)


def make_helix(n, params, wsgn, zsgn):
    beta = params.helix_angle
    jj, ii = np.mgrid[0:n, 0:n]
    return SpinField.from_angles(beta * (wsgn * ii + zsgn * jj), params.lam)


def bond_angle(a, b):
    """transform's theta_hor from a spin at angle a to its right neighbour
    at angle b, on a two-site row (doubled: transform needs 2x2)."""
    p = ModelParams(lam=0.1, delta=0.3)
    theta, _ = transform(SpinField.from_angles([[a, b], [a, b]], p.lam), p)
    assert np.all(theta.theta_hor.values == theta.theta_hor.values[0, 0])
    return float(theta.theta_hor.values[0, 0])


def test_transform_rejects_a_spacing_other_than_lambda():
    # the energy layer rejects this field too; lambda comes from params only
    p = ModelParams(lam=0.1, delta=0.3)
    u = SpinField.from_angles(np.zeros((6, 6)), 0.05)
    with pytest.raises(ValueError, match="differs from lambda"):
        transform(u, p)


class TestOrientedAngle:
    def test_quarter_turn(self):
        assert bond_angle(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
        assert bond_angle(0.0, -math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_half_turn_is_minus_pi(self):
        # the branch cut maps +pi to -pi
        assert bond_angle(0.0, math.pi) == -math.pi
        assert bond_angle(0.0, -math.pi) == -math.pi

    @given(angle, angle)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry_off_cut(self, a, b):
        t = bond_angle(a, b)
        s = bond_angle(b, a)
        if abs(abs(t) - math.pi) > 1e-9:
            assert s == pytest.approx(-t, abs=1e-12)

    @given(angle, angle)
    @settings(max_examples=100, deadline=None)
    def test_range(self, a, b):
        assert -math.pi <= bond_angle(a, b) < math.pi


class TestTransform:
    def test_shapes(self):
        p = ModelParams(lam=0.1, delta=0.3)
        u = make_helix(5, p, 1, 1)
        theta, pair = transform(u, p)
        assert theta.theta_hor.values.shape == (5, 4)
        assert theta.theta_ver.values.shape == (4, 5)
        assert pair.w.values.shape == (5, 4)
        assert pair.z.values.shape == (4, 5)

    @pytest.mark.parametrize("wsgn", [1, -1])
    @pytest.mark.parametrize("zsgn", [1, -1])
    def test_helices_map_to_unit_chiralities(self, wsgn, zsgn):
        p = ModelParams(lam=0.05, delta=0.2)
        _, pair = transform(make_helix(8, p, wsgn, zsgn), p)
        np.testing.assert_allclose(pair.w.values, wsgn, atol=1e-12)
        np.testing.assert_allclose(pair.z.values, zsgn, atol=1e-12)

    def test_oracle_small_field(self):
        # independent elementwise recomputation
        rng = np.random.default_rng(11)
        p = ModelParams(lam=0.1, delta=0.4)
        psi = rng.uniform(-0.8, 0.8, (3, 3))
        u = SpinField.from_angles(psi, p.lam)
        theta, pair = transform(u, p)
        for j in range(3):
            for i in range(2):
                a, b = psi[j, i], psi[j, i + 1]
                t = math.atan2(math.sin(b - a), math.cos(b - a))
                assert theta.theta_hor.values[j, i] == pytest.approx(t, abs=1e-12)
                want = math.sqrt(2.0 / p.delta) * math.sin(t / 2.0)
                assert pair.w.values[j, i] == pytest.approx(want, abs=1e-12)

    def test_too_small(self):
        p = ModelParams(lam=0.1, delta=0.3)
        with pytest.raises(ValueError):
            transform(SpinField.from_angles(np.zeros((1, 5)), p.lam), p)

    def test_json_roundtrip(self):
        p = ModelParams(lam=0.1, delta=0.3)
        _, pair = transform(make_helix(4, p, 1, -1), p)
        pair2 = ChiralityPair.from_json(pair.to_json())
        np.testing.assert_allclose(pair2.w.values, pair.w.values)
        np.testing.assert_allclose(pair2.z.values, pair.z.values)
        assert pair2.delta == pair.delta


class TestVorticity:
    def test_zero_on_smooth_fields(self):
        rng = np.random.default_rng(5)
        p = ModelParams(lam=0.1, delta=0.3)
        psi = 0.3 * rng.normal(size=(6, 6))
        theta, _ = transform(SpinField.from_angles(psi, p.lam), p)
        v = vorticity(theta)
        np.testing.assert_array_equal(v.values, 0.0)

    def test_four_spin_vortex(self):
        # one spin per quadrant rotating by pi/2 counterclockwise
        p = ModelParams(lam=0.1, delta=0.5)
        psi = np.array(
            [[-3 * math.pi / 4, -math.pi / 4], [3 * math.pi / 4, math.pi / 4]]
        )
        theta, _ = transform(SpinField.from_angles(psi, p.lam), p)
        v = vorticity(theta)
        assert v.values.shape == (1, 1)
        assert v.values[0, 0] == pytest.approx(2 * math.pi, abs=1e-12)

    def test_rejects_inconsistent_fields(self):
        lam = 0.1
        th = ScalarGrid.from_values(np.full((2, 1), 0.3), lam)
        tv = ScalarGrid.from_values(np.array([[0.3, 0.7]]), lam)
        from helimag.chirality import ThetaFields

        with pytest.raises(ValueError):
            vorticity(ThetaFields(theta_hor=th, theta_ver=tv))
