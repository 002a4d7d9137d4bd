"""Grid JSON codecs against the standard library's json as the oracle: the
chunked orjson writer must produce json.dumps's text byte for byte, in
to_json() and in the files write_json() writes, and the orjson reader must
give json.loads's floats bit for bit."""

import json

import numpy as np
import orjson
import pytest

from helimag.chirality import ChiralityPair
from helimag.continuum import MeshPotential, build_example
from helimag.lattice import ENCODE_CHUNK, ScalarGrid, SpinField, _float_array_json, dump, \
    dumps, json_numbers

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
    assert _float_array_json(a) == json.dumps(a.tolist()).encode()


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


# tokens orjson spells differently from repr
RESPELLED = [1e-05, -2.5e-07, 1e16, -0.0, 5e-324, 1.7976931348623157e308]
SIZES = [0, 1, ENCODE_CHUNK - 1, ENCODE_CHUNK, ENCODE_CHUNK + 1, 2 * ENCODE_CHUNK + 3]


def chunk_edges(size, seed):
    """Ordinary values with a re-spelled token at the first and the last
    slot of every ENCODE_CHUNK-value chunk."""
    a = log_spread(size, seed, -3.0, 15.0)
    for n, start in enumerate(range(0, size, ENCODE_CHUNK)):
        a[start] = RESPELLED[n % len(RESPELLED)]
        a[min(start + ENCODE_CHUNK, size) - 1] = RESPELLED[(n + 3) % len(RESPELLED)]
    return a


def assert_same_bytes(got, want):
    # a failure names the first differing byte instead of making pytest
    # diff two texts of a megabyte
    if got != want:
        at = next((k for k, (x, y) in enumerate(zip(got, want)) if x != y),
                  min(len(got), len(want)))
        pytest.fail(f"first difference at byte {at}: {got[at:at + 40]!r} != {want[at:at + 40]!r}")


def assert_written_as_json_dumps(grid, doc, tmp_path):
    path = tmp_path / "grid.json"
    grid.write_json(path)
    want = json.dumps(doc).encode()
    assert_same_bytes(path.read_bytes(), want)
    assert_same_bytes(grid.to_json().encode(), want)


class TestChunkBoundaries:
    @pytest.mark.parametrize("size", SIZES)
    def test_scalar_grid(self, tmp_path, size):
        vals = chunk_edges(size, seed=41).reshape(1, size)
        g = ScalarGrid.from_values(vals, 0.07)
        doc = {"nx": size, "ny": 1, "lambda": 0.07, "values": vals.ravel().tolist()}
        assert_written_as_json_dumps(g, doc, tmp_path)

    @pytest.mark.parametrize("size", SIZES)
    def test_spin_field(self, tmp_path, size):
        psi = chunk_edges(size, seed=42).reshape(size, 1)
        u = SpinField.from_angles(psi, 1.0 / 3)
        doc = {"nx": 1, "ny": size, "lambda": 1.0 / 3, "angles": psi.ravel().tolist()}
        assert_written_as_json_dumps(u, doc, tmp_path)

    @pytest.mark.parametrize("size_w, size_z", zip(SIZES, SIZES[::-1]))
    def test_chirality_pair(self, tmp_path, size_w, size_z):
        # two arrays of different sizes, each with its own chunk boundaries
        w, z = chunk_edges(size_w, seed=43), chunk_edges(size_z, seed=44)
        pair = ChiralityPair(
            w=ScalarGrid.from_values(w.reshape(1, size_w), 0.02),
            z=ScalarGrid.from_values(z.reshape(size_z, 1), 0.02),
            delta=3e-05,
        )
        doc = {"nx": size_w + 1, "ny": size_z + 1, "lambda": 0.02, "delta": 3e-05,
               "w": w.tolist(), "z": z.tolist()}
        assert_written_as_json_dumps(pair, doc, tmp_path)

    def test_random_bit_patterns_over_several_chunks(self, tmp_path):
        a = random_finite_bits(3 * ENCODE_CHUNK + 200, seed=45)
        assert a.size > 3 * ENCODE_CHUNK
        doc = {"nx": a.size, "values": a}
        want = json.dumps({**doc, "values": a.tolist()}).encode()
        dump(doc, tmp_path / "a.json")
        assert_same_bytes(dumps(doc).encode(), want)
        assert_same_bytes((tmp_path / "a.json").read_bytes(), want)

    def test_strided_input_over_several_chunks(self):
        a = log_spread(9 * ENCODE_CHUNK + 7, seed=46)[::3]
        assert_same_bytes(dumps({"values": a}).encode(), json.dumps({"values": a.tolist()}).encode())


class TestReadersRejectNonNumbers:
    GRID = {"nx": 2, "ny": 2, "lambda": 0.1, "values": [0.1, 0.2, 0.3, 0.4]}
    PAIR = {"nx": 2, "ny": 2, "lambda": 0.1, "delta": 0.2, "w": [0.1, 0.2], "z": [0.3, 0.4]}

    @pytest.mark.parametrize("key, value", [
        ("nx", 2.0), ("nx", "2"), ("ny", True), ("lambda", "0.1"), ("lambda", None),
        ("values", ["0.1", "0.2", "0.3", "0.4"]), ("values", [True, False, True, False]),
        ("values", [0.1, None, 0.3, 0.4]), ("values", [[0.1, 0.2], [0.3]]),
    ])
    def test_scalar_grid(self, key, value):
        with pytest.raises(ValueError):
            ScalarGrid.from_json(json.dumps({**self.GRID, key: value}))

    @pytest.mark.parametrize("key, value", [
        ("nx", 2.5), ("ny", False), ("delta", "0.2"), ("lambda", [0.1]),
        ("w", ["0.1", "0.2"]), ("z", [False, True]),
    ])
    def test_chirality_pair(self, key, value):
        with pytest.raises(ValueError):
            ChiralityPair.from_json(json.dumps({**self.PAIR, key: value}))

    @pytest.mark.parametrize("values", [
        [True, 0.5, 0.3, 0.4], [0.1, 0.2, 0.3, False], [1, 0, True, 2], [0.0, 1.0, False, 1],
    ], ids=["true first", "false last", "among integers", "among zeros and ones"])
    def test_booleans_among_numbers(self, values):
        with pytest.raises(ValueError, match="values must hold JSON numbers only"):
            ScalarGrid.from_json(json.dumps({**self.GRID, "values": values}))

    def test_booleans_among_nested_numbers(self):
        with pytest.raises(ValueError, match="vertices must hold JSON numbers only"):
            json_numbers({"vertices": [[0.0, 0.5], [1.0, True]]}, "vertices")

    def test_zeros_and_ones_are_numbers(self):
        g = ScalarGrid.from_json(json.dumps({**self.GRID, "values": [0, 1.0, 0.0, 1]}))
        assert g.values.tolist() == [[0.0, 1.0], [0.0, 1.0]]
        nested = json_numbers({"vertices": [[0, 1.0], [-0.0, 1]]}, "vertices")
        assert nested.tolist() == [[0.0, 1.0], [-0.0, 1.0]]

    def test_integer_values_are_numbers(self):
        g = ScalarGrid.from_json(json.dumps({**self.GRID, "values": [1, 2, 3, 4], "lambda": 1}))
        assert g.values.dtype == np.float64 and g.spacing == 1.0
        pair = ChiralityPair.from_json(json.dumps(self.PAIR).encode())
        assert pair.delta == 0.2


class TestReadersNameWhatIsMissing:
    """Every JSON loader names a missing key and rejects a document that is
    not a JSON object, with ValueError."""

    DOCS = {
        SpinField: {"nx": 2, "ny": 2, "lambda": 0.1, "angles": [0.1, 0.2, 0.3, 0.4]},
        ScalarGrid: TestReadersRejectNonNumbers.GRID,
        ChiralityPair: TestReadersRejectNonNumbers.PAIR,
        MeshPotential: json.loads(build_example("vertical_wall").to_json()),
    }
    CASES = [(cls, key) for cls, doc in DOCS.items() for key in doc]

    def test_documents_load(self):
        for cls, doc in self.DOCS.items():
            assert isinstance(cls.from_json(json.dumps(doc)), cls)

    @pytest.mark.parametrize("cls, key", CASES, ids=[f"{c.__name__}-{k}" for c, k in CASES])
    def test_missing_key(self, cls, key):
        doc = {k: v for k, v in self.DOCS[cls].items() if k != key}
        with pytest.raises(ValueError, match=f"^missing key '{key}'$"):
            cls.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text, kind", [
        ("[1, 2]", "list"), ("[]", "list"), ('"nx"', "str"), ("3", "int"), ("null", "NoneType"),
    ])
    @pytest.mark.parametrize("cls", list(DOCS), ids=lambda c: c.__name__)
    def test_document_that_is_not_an_object(self, cls, text, kind):
        with pytest.raises(ValueError, match=f"^expected a JSON object, got {kind}$"):
            cls.from_json(text)
