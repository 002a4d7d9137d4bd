"""Grid JSON codecs against the standard library's json as the oracle: the
orjson writer must produce json.dumps's text byte for byte, and the orjson
reader must give json.loads's floats bit for bit."""

import json

import numpy as np
import orjson
import pytest

from helimag.chirality import ChiralityPair
from helimag.lattice import ScalarGrid, SpinField, _float_array_json, dumps

BOUNDARY = [
    1e-4,
    9.999999999999999e-05,
    1e-5,
    5e-324,
    2.2250738585072014e-308,
    -0.0,
    1e15,
    9999999999999998.0,
    1e16,
    1.7976931348623157e308,
]


def random_finite_bits(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    return a[np.isfinite(a)]


def log_spread(n, seed, lo=-9.0, hi=20.0):
    """Both signs, magnitudes log-uniform in [10**lo, 10**hi]."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)


def assert_same_text(a):
    assert _float_array_json(a) == json.dumps(a.tolist())


class TestFloatArrayEncoder:
    def test_random_finite_bit_patterns(self):
        assert_same_text(random_finite_bits(200_000, seed=11))

    def test_values_from_1e_minus_9_to_1e20(self):
        assert_same_text(log_spread(200_000, seed=12))

    def test_values_around_the_spelling_switches(self):
        # both sides of 1e-4 and 1e16, where repr and orjson change notation
        a = np.concatenate([log_spread(50_000, 13, -4.5, -3.5), log_spread(50_000, 14, 15.5, 16.5)])
        assert_same_text(a)

    @pytest.mark.parametrize("value", BOUNDARY)
    def test_boundary_value(self, value):
        with np.errstate(over="ignore"):  # the float above the largest is inf
            above = np.nextafter(value, np.inf)
        for x in (value, -value, np.nextafter(value, 0.0), above):
            assert_same_text(np.array([x]))
            assert_same_text(np.array([0.5, x, 2.0]))

    def test_boundary_values_together(self):
        b = np.array(BOUNDARY)
        assert_same_text(np.concatenate([b, -b, np.zeros(3), b[::-1]]))

    def test_empty_and_one_element(self):
        assert_same_text(np.array([]))
        assert_same_text(np.array([3.25]))
        assert_same_text(np.array([3e-05]))

    def test_non_finite_values_keep_the_stdlib_spelling(self):
        assert_same_text(np.array([np.nan, 1.0, np.inf, -np.inf, 2e-7]))

    def test_strided_input(self):
        a = log_spread(1000, seed=15)
        assert_same_text(a[::3])

    def test_dumps_matches_json_dumps(self):
        a = log_spread(500, seed=16)
        doc = {"nx": 5, "ny": 100, "lambda": 0.1 / 3, "delta": None, "values": a}
        assert dumps(doc) == json.dumps({**doc, "values": a.tolist()})


def decimal_strings(n, seed):
    """25-significant-digit decimals with exponents across the whole double
    range, subnormals included."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, (n, 25))
    digits[:, 0] = rng.integers(1, 10, n)
    exps = rng.integers(-330, 309, n)
    exps[: n // 4] = rng.integers(-324, -307, n // 4)  # subnormal range
    signs = rng.choice(["", "-"], n)
    return [
        f"{s}{d[0]}.{''.join(map(str, d[1:]))}e{e}"
        for s, d, e in zip(signs, digits.tolist(), exps.tolist())
    ]


class TestDecoder:
    def test_25_digit_decimals_parse_to_the_same_bits(self):
        words = decimal_strings(40_000, seed=21)
        words = [w for w in words if np.isfinite(float(w))]  # drop overflow
        text = "[" + ", ".join(words) + "]"
        got = np.array(orjson.loads(text), dtype=np.float64)
        want = np.array(json.loads(text), dtype=np.float64)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.count_nonzero((want != 0) & (np.abs(want) < 2.2250738585072014e-308)) > 1000

    def test_encoder_output_round_trips(self):
        a = np.concatenate([random_finite_bits(50_000, 22), log_spread(50_000, 23)])
        back = np.array(orjson.loads(_float_array_json(a)), dtype=np.float64)
        np.testing.assert_array_equal(back.view(np.uint64), a.view(np.uint64))


def magnitudes(shape, seed):
    """Values whose spelling orjson and repr disagree on, mixed with ordinary
    ones and zeros."""
    a = log_spread(int(np.prod(shape)), seed, -12.0, 20.0)
    a[::7] = 0.0
    a[::11] = np.resize(BOUNDARY, a[::11].size)
    return a.reshape(shape)


class TestGridRoundTrips:
    def test_scalar_grid(self):
        vals = magnitudes((9, 13), seed=31)
        g = ScalarGrid.from_values(vals, 0.07)
        text = g.to_json()
        assert text == json.dumps(
            {"nx": 13, "ny": 9, "lambda": 0.07, "values": vals.ravel().tolist()}
        )
        g2 = ScalarGrid.from_json(text)
        np.testing.assert_array_equal(g2.values.view(np.uint64), vals.view(np.uint64))

    def test_spin_field(self):
        psi = magnitudes((8, 6), seed=32)
        u = SpinField.from_angles(psi, 1.0 / 3)
        text = u.to_json()
        assert text == json.dumps(
            {"nx": 6, "ny": 8, "lambda": 1.0 / 3, "angles": psi.ravel().tolist()}
        )
        u2 = SpinField.from_json(text)
        assert u2.spacing == 1.0 / 3
        np.testing.assert_array_equal(u2.angles.view(np.uint64), psi.view(np.uint64))

    def test_chirality_pair(self):
        w, z = magnitudes((5, 6), seed=33), magnitudes((4, 7), seed=34)
        pair = ChiralityPair(
            w=ScalarGrid.from_values(w, 0.02), z=ScalarGrid.from_values(z, 0.02), delta=3e-05
        )
        text = pair.to_json()
        assert text == json.dumps({
            "nx": 7, "ny": 5, "lambda": 0.02, "delta": 3e-05,
            "w": w.ravel().tolist(), "z": z.ravel().tolist(),
        })
        pair2 = ChiralityPair.from_json(text)
        assert pair2.delta == 3e-05
        np.testing.assert_array_equal(pair2.w.values.view(np.uint64), w.view(np.uint64))
        np.testing.assert_array_equal(pair2.z.values.view(np.uint64), z.view(np.uint64))
