"""Scaled square-lattice grids, domains and the lattice definitions that the
other modules read: the index set (``index_ranges``, ``index_mask``), the
spacing rule (``check_spacing``), the unit spin vectors (``spin_vectors``)
and the ground-state helices (``helix``).

Grid functions are piecewise constant on the closed cells
Q(i, j) = [lam*i, lam*(i+1)] x [lam*j, lam*(j+1)].  Values are stored
row-major in an (ny, nx) array indexed [j, i] so that flattening gives rows
of constant j.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np
import orjson

# absolute slack for cell-inclusion tests, scaled by the coordinate magnitude
GEOM_TOL = 1e-12


def det_sum(a: np.ndarray) -> float:
    """Deterministic fixed-order pairwise summation of all entries."""
    return float(np.add.reduce(np.asarray(a, dtype=float).ravel()))


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle [x0, x0+width] x [y0, y0+height].

    A closed cell Q(i, j) lies in the domain when column i fits in
    [x0, x0+width] and row j fits in [y0, y0+height], each up to a slack of
    GEOM_TOL scaled by the coordinate magnitude.
    """

    x0: float = 0.0
    y0: float = 0.0
    width: float = 1.0
    height: float = 1.0

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and self.height > 0.0):
            raise ValueError("domain width and height must be positive")

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x0, self.y0, self.x0 + self.width, self.y0 + self.height)


@dataclass(frozen=True)
class ModelParams:
    """Lattice spacing and frustration offset with the derived quantities.

    alpha = 4*(1 - delta) is the nearest-neighbour coupling of the reduced
    energy; epsilon = lam / sqrt(2*delta) is the phase-transition scale.
    The intended regime is lam/sqrt(delta) small; epsilon >= 1 only warns.
    """

    lam: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError("lattice spacing must be positive and finite")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.epsilon >= 1.0:
            warnings.warn(
                "epsilon = lam/sqrt(2*delta) >= 1: outside the intended scaling regime",
                stacklevel=2,
            )

    @property
    def alpha(self) -> float:
        return 4.0 * (1.0 - self.delta)

    @property
    def epsilon(self) -> float:
        return self.lam / math.sqrt(2.0 * self.delta)

    @property
    def helix_angle(self) -> float:
        """Optimal per-bond rotation arccos(1 - delta) of the ground-state helix."""
        return math.acos(1.0 - self.delta)


def index_ranges(
    domain: Domain, lam: float, nx: int, ny: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The index set as two ranges ((i0, i1), (j0, j1)): the columns i in
    [0, nx) whose closed cells Q(i), Q(i+1) lie in [x0, x0+width] and the
    rows j in [0, ny) whose Q(j), Q(j+1) lie in [y0, y0+height], each side
    widened by GEOM_TOL times the largest coordinate magnitude (at least 1).
    For lo <= lam*k and lam*(k+2) <= hi, which hold on a suffix and on a
    prefix of the indices k, each is one range."""
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    x0, y0, x1, y1 = domain.corners()
    tol = GEOM_TOL * max(1.0, abs(x0) + domain.width, abs(y0) + domain.height)

    def span(lo: float, hi: float, n: int) -> tuple[int, int]:
        k = np.arange(n, dtype=float)
        k0 = n - int(np.count_nonzero(lam * k >= lo - tol))
        return k0, max(k0, int(np.count_nonzero(lam * (k + 2.0) <= hi + tol)))

    return span(x0, x1, nx), span(y0, y1, ny)


def index_mask(domain: Domain, lam: float, nx: int, ny: int) -> np.ndarray:
    """Boolean (ny, nx) mask of the index set: the (i, j) in [0, nx) x [0, ny)
    whose closed cells Q(i,j), Q(i+1,j), Q(i,j+1) all lie inside the domain,
    the rectangle of ``index_ranges``."""
    (i0, i1), (j0, j1) = index_ranges(domain, lam, nx, ny)
    mask = np.zeros((ny, nx), dtype=bool)
    mask[j0:j1, i0:i1] = True
    return mask


def check_spacing(u: SpinField, params: ModelParams) -> None:
    """ValueError unless the field lives on the lattice of ``params``."""
    if u.spacing != params.lam:
        raise ValueError(f"the field's spacing {u.spacing!r} differs from lambda = {params.lam!r}")


def spin_vectors(angles: np.ndarray) -> np.ndarray:
    """The stacked unit vectors (cos, sin) of an angle array, or of a stack
    of them, shape (2,) + angles.shape; it unpacks as (ux, uy)."""
    cs = np.empty((2,) + angles.shape)
    np.cos(angles, out=cs[0])
    np.sin(angles, out=cs[1])
    return cs


def helix(shape: tuple[int, int], params: ModelParams, pair: tuple[int, int]) -> np.ndarray:
    """Angles psi[j, i] = beta (w i + z j) on a (ny, nx) grid of the helix of
    chirality pair (w, z), beta = ``params.helix_angle``: one of the four
    ground states, whose energy is zero."""
    w, z = pair
    jj, ii = np.indices(shape)
    return params.helix_angle * (w * ii + z * jj)


# values per orjson call when a float array is written; bounds the encoder's
# working memory at a few hundred kB whatever the array's size
ENCODE_CHUNK = 8192


def _float_array_json(a: np.ndarray) -> bytes:
    """``json.dumps(a.tolist()).encode()`` of a 1-D float64 array, written
    by orjson.

    orjson writes the same shortest round-trip digits as ``float.__repr__``
    but spells some tokens differently: ``0.00003``, ``1.5e-7`` and ``1e16``
    where repr writes ``3e-05``, ``1.5e-07`` and ``1e+16``, and ``null`` for
    the non-finite values json writes as ``NaN``/``Infinity``.  Only those
    tokens (nonzero |x| < 1e-4, |x| >= 1e16, non-finite) are re-spelled, from
    the comma positions, which are looked up only in an array that holds
    such a token; the others stay bytes of orjson's text.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    raw = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    mag = np.abs(a)
    fix = np.flatnonzero(((mag < 1e-4) & (mag > 0.0)) | (mag >= 1e16) | np.isnan(a))
    if fix.size:
        commas = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord(","))
        starts = (np.concatenate(([0], commas))[fix] + 1).tolist()
        ends = np.append(commas, len(raw) - 1)[fix].tolist()
        parts, prev = [], 0
        for x, start, end in zip(a[fix].tolist(), starts, ends):
            spelled = repr(x) if math.isfinite(x) else json.dumps(x)
            parts += (raw[prev:start], spelled.encode())
            prev = end
        parts.append(raw[prev:])
        raw = b"".join(parts)
    return raw.replace(b",", b", ")


def _document_parts(doc: dict) -> Iterator[bytes | memoryview]:
    """``json.dumps(doc).encode()`` of a flat dict, in parts: the values
    that are 1-D float arrays are written ENCODE_CHUNK values at a time by
    _float_array_json, the others by json."""
    yield b"{"
    for n, (key, val) in enumerate(doc.items()):
        yield (b", " if n else b"") + json.dumps(key).encode() + b": "
        if not isinstance(val, np.ndarray):
            yield json.dumps(val).encode()
            continue
        yield b"["
        for start in range(0, val.size, ENCODE_CHUNK):
            if start:
                yield b", "
            yield memoryview(_float_array_json(val[start:start + ENCODE_CHUNK]))[1:-1]
        yield b"]"
    yield b"}"


def dumps(doc: dict) -> str:
    """``json.dumps(doc)`` of a flat dict whose array values are 1-D float
    arrays, joined from _document_parts."""
    return b"".join(_document_parts(doc)).decode()


def dump(doc: dict, path) -> None:
    """Write ``dumps(doc)`` to the file at ``path`` as bytes, part by part,
    so that no copy of the whole text is ever held."""
    with open(path, "wb") as f:
        f.writelines(_document_parts(doc))


def json_object(text: str | bytes) -> dict:
    """The JSON document ``text`` if it is an object; else ValueError."""
    doc = orjson.loads(text)
    if type(doc) is not dict:
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def json_value(doc: dict, key: str):
    """``doc[key]``; ValueError naming the key if it is missing."""
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    return doc[key]


def json_int(doc: dict, key: str) -> int:
    """``doc[key]`` if it is a JSON integer (not a boolean); else ValueError."""
    value = json_value(doc, key)
    if type(value) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    return value


def json_number(doc: dict, key: str) -> float:
    """``doc[key]`` as a float if it is a JSON number (not a boolean); else
    ValueError."""
    value = json_value(doc, key)
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a JSON number, got {value!r}")
    return float(value)


def json_numbers(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as a float array if it holds JSON numbers only; lists of
    strings or of booleans, nulls and ragged lists raise ValueError.

    numpy reads a list of numbers with an integer or float dtype, but reads
    a boolean among numbers as 0 or 1, so only the entries that read exactly
    0 or 1 are looked up in the list to tell them from booleans."""
    items = json_value(doc, key)
    values = np.array(items)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{key} must hold JSON numbers only")
    suspects = np.flatnonzero((values == 0) | (values == 1))
    if suspects.size:
        for _ in range(values.ndim - 1):  # the entries in row-major order
            items = list(chain.from_iterable(items))
        if any(type(items[i]) is bool for i in suspects.tolist()):
            raise ValueError(f"{key} must hold JSON numbers only, not booleans")
    return values.astype(float, copy=False)


@dataclass
class ScalarGrid:
    """Real-valued grid function, one value per site (i, j)."""

    nx: int
    ny: int
    spacing: float
    values: np.ndarray  # shape (ny, nx), indexed [j, i]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.ny, self.nx):
            raise ValueError(
                f"values shape {self.values.shape} != (ny, nx) = {(self.ny, self.nx)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @classmethod
    def from_values(cls, values: np.ndarray, spacing: float) -> "ScalarGrid":
        values = np.asarray(values, dtype=float)
        ny, nx = values.shape
        return cls(nx=nx, ny=ny, spacing=spacing, values=values)

    def _document(self) -> dict:
        return {"nx": self.nx, "ny": self.ny, "lambda": self.spacing,
                "values": self.values.ravel()}

    def to_json(self) -> str:
        return dumps(self._document())

    def write_json(self, path) -> None:
        """Write to_json()'s text to ``path`` as bytes, in chunks."""
        dump(self._document(), path)

    @classmethod
    def from_json(cls, text: str | bytes) -> "ScalarGrid":
        doc = json_object(text)
        nx, ny = json_int(doc, "nx"), json_int(doc, "ny")
        values = json_numbers(doc, "values").reshape(ny, nx)
        return cls(nx=nx, ny=ny, spacing=json_number(doc, "lambda"), values=values)


@dataclass
class SpinField:
    """Unit spin field stored as angles psi (a lifting); u = (cos psi, sin psi)."""

    nx: int
    ny: int
    spacing: float
    angles: np.ndarray  # shape (ny, nx), radians, unconstrained reals

    def __post_init__(self) -> None:
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.shape != (self.ny, self.nx):
            raise ValueError(
                f"angles shape {self.angles.shape} != (ny, nx) = {(self.ny, self.nx)}"
            )
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("spin angles must be finite")

    @classmethod
    def from_angles(cls, angles: np.ndarray, spacing: float) -> "SpinField":
        angles = np.asarray(angles, dtype=float)
        ny, nx = angles.shape
        return cls(nx=nx, ny=ny, spacing=spacing, angles=angles)

    def vectors(self) -> np.ndarray:
        """Unit vectors ``spin_vectors(angles)``, which unpack as (ux, uy);
        |u| = 1 is forced by the representation."""
        return spin_vectors(self.angles)

    def _document(self) -> dict:
        return {"nx": self.nx, "ny": self.ny, "lambda": self.spacing,
                "angles": self.angles.ravel()}

    def to_json(self) -> str:
        return dumps(self._document())

    def write_json(self, path) -> None:
        """Write to_json()'s text to ``path`` as bytes, in chunks."""
        dump(self._document(), path)

    @classmethod
    def from_json(cls, text: str | bytes) -> "SpinField":
        doc = json_object(text)
        nx, ny = json_int(doc, "nx"), json_int(doc, "ny")
        angles = json_numbers(doc, "angles").reshape(ny, nx)
        return cls(nx=nx, ny=ny, spacing=json_number(doc, "lambda"), angles=angles)
