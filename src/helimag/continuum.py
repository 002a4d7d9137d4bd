"""Admissible continuum chirality fields as piecewise-affine potentials.

A continuum chirality field (w, z) with values in {-1, 1}^2 and zero curl is
represented through a potential phi on a triangulation with per-triangle
gradient (w, z); the curl-free constraint is structural, never a numerical
check.  Jump segments between differently labeled triangles carry the
interfacial energy: density 8/3 on axis walls, sqrt(2)*8/3 on diagonal
walls, and the limit functional is

    H = (4/3) * (|D1 w| + |D2 z|).

Meshes are immutable.  Each computes its geometry (gradients, labels, edge
table, affine coefficients, locate's tables) and its jump set once, on
first use, and every function here reads them from the mesh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import orjson

from .lattice import Domain, json_number, json_numbers

GRAD_TOL = 1e-9  # per-component slack for the {+-1}^2 gradient labels
MERGE_TOL = 1e-9  # collinearity/endpoint tolerance for segment merging

SIGMA_AXIS = 8.0 / 3.0
SIGMA_DIAG = math.sqrt(2.0) * 8.0 / 3.0


class MeshError(ValueError):
    """Raised for invalid meshes."""


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MeshPotential:
    """Continuous piecewise-affine potential on a triangulation of a domain.

    Immutable: the mesh holds read-only copies of its arrays, and its
    derived geometry (gradients, validated labels, edge table, affine
    coefficients, locate's tables and the jump set) is computed on first
    use and then kept, read-only.  A validation error is raised again on
    every access and never kept.  dataclasses.replace builds a new mesh
    with fresh geometry."""

    vertices: np.ndarray  # (N, 2)
    triangles: np.ndarray  # (M, 3) vertex indices
    heights: np.ndarray  # (N,)
    domain: Domain

    def __post_init__(self) -> None:
        vertices = np.array(self.vertices, dtype=float)
        tri = np.asarray(self.triangles)
        # integral floats pass; a cast to int would truncate 0.7 to vertex 0
        if not (tri.dtype.kind in "iu" or (
            tri.dtype.kind == "f" and np.all(np.isfinite(tri) & (tri == np.round(tri)))
        )):
            raise ValueError("triangle vertex indices must be integers")
        heights = np.array(self.heights, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be (N, 2)")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise ValueError("triangles must be (M, 3)")
        if heights.shape != (vertices.shape[0],):
            raise ValueError("heights must match the vertex count")
        if not (np.isfinite(vertices).all() and np.isfinite(heights).all()):
            raise ValueError("vertices and heights must be finite")
        # checked before the cast: a float index of 2**63 or more would not cast
        if tri.size and (tri.min() < 0 or tri.max() >= vertices.shape[0]):
            raise ValueError(f"triangle vertex indices must lie in [0, {vertices.shape[0]})")
        for name, value in (("vertices", vertices), ("triangles", tri.astype(int)),
                            ("heights", heights)):
            object.__setattr__(self, name, _frozen(value))

    def gradients(self) -> np.ndarray:
        """Per-triangle gradient of the affine interpolant, shape (M, 2)."""
        return self._gradients_and_dets[0]

    @cached_property
    def _gradients_and_dets(self) -> tuple[np.ndarray, np.ndarray]:
        """gradients() and the (M,) determinants of the edge vectors
        (v[b] - v[a], v[c] - v[a]) it divides by, twice the signed areas."""
        v = self.vertices
        h = self.heights
        a, b, c = (self.triangles[:, k] for k in range(3))
        e1 = v[b] - v[a]
        e2 = v[c] - v[a]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(np.abs(det) < 1e-15):
            raise MeshError("degenerate triangle(s)")
        d1 = h[b] - h[a]
        d2 = h[c] - h[a]
        gx = (d1 * e2[:, 1] - d2 * e1[:, 1]) / det
        gy = (d2 * e1[:, 0] - d1 * e2[:, 0]) / det
        return _frozen(np.stack([gx, gy], axis=1)), _frozen(det)

    @cached_property
    def labels(self) -> np.ndarray:
        """The (M, 2) integer (w, z) labels; raises MeshError unless every
        triangle gradient lies in {+-1}^2 and the mesh covers the domain."""
        grads, det = self._gradients_and_dets
        labels = np.round(grads).astype(int)
        # column by column, as in _edges: a reduction over an axis of length 2
        # costs many times as much
        err = np.abs(grads - labels)
        size = np.abs(labels)
        bad = (err[:, 0] > GRAD_TOL) | (err[:, 1] > GRAD_TOL)
        bad |= (size[:, 0] != 1) | (size[:, 1] != 1)
        if np.any(bad):
            idx = [int(t) for t in np.nonzero(bad)[0]]
            raise MeshError(f"gradients off the {{+-1}}^2 lattice on triangles {idx}")
        area = 0.5 * np.abs(det).sum()
        target = self.domain.width * self.domain.height
        if abs(area - target) > 1e-9 * max(1.0, target):
            raise MeshError(f"mesh area {area} does not cover the domain area {target}")
        return _frozen(labels)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, ...]:
        """The edge table, one row per edge in order of the keys lo*N + hi:
        end vertices lo < hi, first half-edge (3t + k for the k-th of the
        half-edges (a, b), (b, c), (c, a) of triangle t), the triangles
        owning the first and second half-edges (the first again on
        one-owner edges), and the owner count."""
        half = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        # column-wise: min(axis=1) over two columns costs about 40 times as much
        lo = np.minimum(half[:, 0], half[:, 1]).astype(np.int64)
        hi = np.maximum(half[:, 0], half[:, 1]).astype(np.int64)
        keys = lo * self.vertices.shape[0] + hi
        order = np.argsort(keys, kind="stable")  # each edge's half-edges in triangle order
        sk = keys[order]
        start = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
        count = np.diff(np.r_[start, sk.size])
        first = order[start]
        second = order[start + (count > 1)]
        return tuple(map(_frozen, (lo[first], hi[first], first, first // 3, second // 3, count)))

    @cached_property
    def jumps(self) -> JumpSet:
        """The mesh's jump set, jump_set(self); raises MeshError as
        validate_mesh does."""
        return jump_set(self)

    @cached_property
    def affine_coefficients(self) -> np.ndarray:
        """Rows (c0, gx, gy) of the per-triangle interpolant c0 + gx*x + gy*y,
        shape (3, M)."""
        g = self.gradients()
        a = self.triangles[:, 0]
        c0 = self.heights[a] - g[:, 0] * self.vertices[a, 0] - g[:, 1] * self.vertices[a, 1]
        return _frozen(np.stack([c0, g[:, 0], g[:, 1]]))

    @property
    def locate_pad(self) -> np.ndarray:
        """Per-triangle pad (shape (M, 1)) of the bounding boxes locate
        tests.  The barycentric test (slack tol = 1e-9 * max(1, max |vertex|))
        accepts points up to 2*tol*extent outside a triangle; the pad is
        twice that, leaving room for rounding."""
        return self._locate_tables[0]

    @cached_property
    def _locate_tables(self) -> tuple[np.ndarray, ...]:
        """locate_pad, the padded bounding boxes lo and hi (M, 2), the
        first corners a (M, 2), the rows (M, 4) of the coefficients of
        s = sx + sy and u = ux + uy (times x - ax or y - ay, 1/det folded in)
        and the barycentric slack tol."""
        tol = 1e-9 * max(1.0, np.abs(self.vertices).max())
        corners = self.vertices[self.triangles]  # (M, 3, 2)
        pad = 4.0 * tol * np.ptp(corners, axis=1).max(axis=1, keepdims=True)
        lo = corners.min(axis=1) - pad
        hi = corners.max(axis=1) + pad
        a = corners[:, 0]
        e1 = corners[:, 1] - a
        e2 = corners[:, 2] - a
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        coef = np.stack([e2[:, 1], -e2[:, 0], -e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
        return (*map(_frozen, (pad, lo, hi, a, coef)), tol)

    def locate(self, x, y) -> np.ndarray:
        """Index of the first triangle containing each point of the broadcast
        of x and y (barycentric test with a relative slack of 1e-9).

        Each triangle tests only the block of the broadcast shape that spans,
        on every axis, the first to the last index meeting its bounding box;
        the ranges of all triangles come from one pass over the unbroadcast
        inputs, so a (1, M) x (K, 1) grid with sorted axes costs about the
        block's area per triangle.  The barycentric coordinates are affine,
        s = sx(x) + sy(y) and u = ux(x) + uy(y), so their terms are computed
        on the unbroadcast inputs and the test is three broadcast
        comparisons.  Triangles write their hits from last to first, so a
        point accepted by several keeps the first.  Raises ValueError if a
        point lies outside the mesh.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out_shape = np.broadcast_shapes(x.shape, y.shape)
        shape = np.broadcast_shapes(out_shape, (1,))  # scalars as 1-point axes
        tri = np.full(shape, -1, dtype=np.intp)
        if tri.size == 0:
            return tri.reshape(out_shape)
        ndim = len(shape)
        x = x.reshape((1,) * (ndim - x.ndim) + x.shape)
        y = y.reshape((1,) * (ndim - y.ndim) + y.shape)
        _, lo, hi, a, coef, tol = self._locate_tables
        per_tri = (slice(None),) + (None,) * ndim
        keep = [np.ones((len(lo), n), dtype=bool) for n in shape]
        for arr, k in ((x, 0), (y, 1)):
            hit = (arr >= lo[:, k][per_tri]) & (arr <= hi[:, k][per_tri])
            for d in range(ndim):
                keep[d] &= hit.any(axis=tuple(e + 1 for e in range(ndim) if e != d))
        first = [kd.argmax(axis=1) for kd in keep]
        stop = [n - kd[:, ::-1].argmax(axis=1) for n, kd in zip(shape, keep)]
        met = np.logical_and.reduce([kd.any(axis=1) for kd in keep])
        for t in np.flatnonzero(met)[::-1]:
            block = tuple(slice(f[t], s[t]) for f, s in zip(first, stop))
            rx = x[tuple(b if n > 1 else slice(None) for b, n in zip(block, x.shape))] - a[t, 0]
            ry = y[tuple(b if n > 1 else slice(None) for b, n in zip(block, y.shape))] - a[t, 1]
            sx, sy, ux, uy = rx * coef[t, 0], ry * coef[t, 1], rx * coef[t, 2], ry * coef[t, 3]
            inside = sx >= -tol - sy
            inside &= ux >= -tol - uy
            inside &= sx + ux <= 1.0 + tol - (sy + uy)
            np.copyto(tri[block], t, where=inside)
        if (tri < 0).any():
            raise ValueError("evaluation point outside the mesh")
        return tri.reshape(out_shape)

    def to_json(self) -> str:
        d = self.domain
        return json.dumps(
            {
                "vertices": self.vertices.tolist(),
                "triangles": self.triangles.tolist(),
                "heights": self.heights.tolist(),
                "domain": {"x0": d.x0, "y0": d.y0, "width": d.width, "height": d.height},
            }
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "MeshPotential":
        doc = orjson.loads(text)
        dd = doc["domain"]
        keys = ("x0", "y0", "width", "height")
        if not (isinstance(dd, dict) and all(k in dd for k in keys)):
            raise ValueError("domain must be an object with numeric x0, y0, width and height")
        return cls(
            vertices=json_numbers(doc, "vertices"),
            triangles=json_numbers(doc, "triangles"),
            heights=json_numbers(doc, "heights"),
            domain=Domain(**{k: json_number(dd, k) for k in keys}),
        )


@dataclass(frozen=True, eq=False)
class JumpSet:
    """Merged jump segments of a mesh as one struct of arrays: segment k runs
    from p[k] to q[k], has unit normal nu[k], the trace plus[k] on the side
    nu[k] points into and minus[k] on the other (each (K, 2)), and length
    length[k] (K,).  On admissible segments the jump plus - minus is
    parallel to nu (rank-one condition for curl-free fields).  The arrays
    are made read-only."""

    p: np.ndarray
    q: np.ndarray
    nu: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    length: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.p, self.q, self.nu, self.plus, self.minus, self.length):
            _frozen(a)

    def __len__(self) -> int:
        return len(self.length)


def validate_mesh(m: MeshPotential) -> list[tuple[int, int]]:
    """Check that every triangle gradient lies in {+-1}^2 and that the mesh
    covers the domain; returns the per-triangle (w, z) labels."""
    return [(w, z) for w, z in m.labels.tolist()]


def kink_edges(m: MeshPotential) -> tuple[np.ndarray, np.ndarray]:
    """The (E, 2) endpoints p, q of every edge across which the extension
    can change its affine map: edges with two owners whose labels differ
    (jump_set's edges before merging), edges with three or more owners
    (jump_set skips them), and edges with one owner that do not lie on a
    domain side (a hanging-node edge is no edge of its neighbours).  The
    extension is affine on every convex set that meets none of them.
    Validates the mesh (MeshError as validate_mesh)."""
    labels = m.labels
    lo, hi, _, t1, t2, count = m._edges
    v = m.vertices
    corners = m.domain.corners()
    tol = 1e-9 * max(1.0, *map(abs, corners))
    # (N, 4): vertex on the side x = x0, x = x1, y = y0, y = y1
    sides = np.abs(v[:, [0, 0, 1, 1]] - np.array(corners)[[0, 2, 1, 3]]) <= tol
    on_side = (sides[lo] & sides[hi]).any(axis=1)
    d = labels[t1] != labels[t2]
    kink = d[:, 0] | d[:, 1]
    kink |= (count > 2) | ((count == 1) & ~on_side)
    return v[lo[kink]], v[hi[kink]]


def jump_set(m: MeshPotential) -> JumpSet:
    """Edges between differently labeled triangles, merged into maximal
    collinear segments with identical trace pairs.  A mesh computes its jump
    set once, here, and keeps it as MeshPotential.jumps; read that instead.

    Validates the mesh (MeshError as validate_mesh).  An edge is a jump edge
    when exactly two triangles own it and their labels differ; edges with
    one owner (the boundary) or three or more are skipped.  The jump edges
    are selected from the edge table in one vectorised pass, in order of
    first appearance, (a, b), (b, c), (c, a) per triangle in triangle
    order, and merged by sorting (see _merge).  The normal is canonically
    oriented (lexicographically positive) and the plus trace is the label
    on the side nu points into, judged by the centroid of the edge's first
    owner; the output is unique up to the global (+, -, nu) <-> (-, +, -nu)
    swap.
    """
    labels = m.labels
    v = m.vertices
    lo, hi, first, t1, t2, count = m._edges
    d = labels[t1] != labels[t2]
    jump = np.flatnonzero((count == 2) & (d[:, 0] | d[:, 1]))
    jump = jump[np.argsort(first[jump])]  # order of first appearance
    t1, t2 = t1[jump], t2[jump]
    p = v[lo[jump]]
    q = v[hi[jump]]
    tang = q - p
    tang /= np.hypot(tang[:, 0], tang[:, 1])[:, None]
    nu = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    flip = (nu[:, 0] < -MERGE_TOL) | ((np.abs(nu[:, 0]) <= MERGE_TOL) & (nu[:, 1] < 0.0))
    nu[flip] = -nu[flip]
    mid = 0.5 * (p + q)
    cent1 = v[m.triangles[t1]].mean(axis=1)
    side = cent1 - mid
    first_plus = side[:, 0] * nu[:, 0] + side[:, 1] * nu[:, 1] > 0.0
    plus = np.where(first_plus[:, None], labels[t1], labels[t2]).astype(float)
    minus = np.where(first_plus[:, None], labels[t2], labels[t1]).astype(float)
    return _merge(p, q, nu, plus, minus)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products a[k] @ b[k] of (K, 2) arrays.  matmul takes
    each row through the vector dot that a 2-vector `@` uses, which does not
    always round as the elementwise a0*b0 + a1*b1 does."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _merge(p, q, nu, plus, minus) -> JumpSet:
    """Jump edges (rows of (K, 2) arrays, in order of first appearance)
    merged into maximal collinear segments with identical trace pairs.

    Edges group by their rounded normal and offset, rint(nu / MERGE_TOL)
    and rint((nu . p) / MERGE_TOL), and their traces.  Groups are ordered
    by (normal, offset) and then by their first edge; the edges of a group
    by their start along the first edge's tangent (-nu2, nu1) and then by
    appearance.  A segment ends where the next edge starts more than
    MERGE_TOL past the end of the edge before it; it runs from its first
    edge's start to its last edge's end and takes the normal of its group's
    first edge.
    """
    k = len(p)
    if k == 0:
        return JumpSet(p, q, nu, plus, minus, np.zeros(0))
    key = np.rint(np.column_stack([nu, _rowdot(nu, p)]) / MERGE_TOL)
    cols = np.column_stack([key, plus, minus])
    order = np.lexsort(cols.T[::-1])  # stable: each group's first edge leads it
    srt = cols[order]
    new = np.ones(k, dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    head = np.empty(k, dtype=np.intp)  # each edge's group's first edge
    head[order] = order[new][np.cumsum(new) - 1]
    tang = nu[head][:, ::-1] * (-1.0, 1.0)  # (-nu2, nu1) of that edge
    ta = _rowdot(p, tang)
    tb = _rowdot(q, tang)
    start = np.minimum(ta, tb)
    end = np.maximum(ta, tb)
    order = np.lexsort((start, head, key[:, 2], key[:, 1], key[:, 0]))
    head, start, end = head[order], start[order], end[order]
    cut = np.ones(k, dtype=bool)
    cut[1:] = (head[1:] != head[:-1]) | (start[1:] > end[:-1] + MERGE_TOL)
    cut = np.flatnonzero(cut)
    first = order[cut]
    last = order[np.append(cut[1:], k) - 1]
    lead = head[cut]
    fwd = (ta <= tb)[:, None]
    pa = np.where(fwd[first], p[first], q[first])
    pb = np.where(fwd[last], q[last], p[last])
    d = pb - pa
    # math.hypot, not np.hypot: they differ in the last bit on about 1% of
    # diagonal edges, and the lengths are written out
    length = np.fromiter(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()), float, len(d))
    return JumpSet(pa, pb, nu[lead], plus[lead], minus[lead], length)


CLASSES = ("inadmissible", "J1", "J2", "J3")  # the codes classify returns


def classify(plus, minus, nu) -> np.ndarray:
    """Class codes (indices into CLASSES) of jump triples, each argument an
    array (..., 2) or one pair: J1 (only w jumps, axis normal), J2 (only z
    jumps), J3 (both jump, diagonal normal), or inadmissible.

    Admissibility is the rank-one condition [(w,z)] parallel to nu; exactly
    twelve triples (up to the orientation swap) pass it.  Raises ValueError
    unless every trace lies in {+-1}^2 and every nu is a unit vector, each
    within GRAD_TOL.
    """
    plus, minus, nu = (np.asarray(a, dtype=float) for a in (plus, minus, nu))
    for t in (plus, minus):
        if not (np.abs(np.abs(t) - 1.0) <= GRAD_TOL).all():
            raise ValueError("traces must take values in {+-1}^2")
    if not (np.abs(np.hypot(nu[..., 0], nu[..., 1]) - 1.0) <= GRAD_TOL).all():
        raise ValueError("nu must be a unit vector")
    dw = plus[..., 0] - minus[..., 0]
    dz = plus[..., 1] - minus[..., 1]
    rank_one = np.abs(dw * nu[..., 1] - dz * nu[..., 0]) <= GRAD_TOL
    return np.where(rank_one, (np.abs(dw) >= GRAD_TOL) + 2 * (np.abs(dz) >= GRAD_TOL), 0)


def sigma(plus, minus, nu) -> np.ndarray:
    """Interfacial energy density (4/3)(|[w]| |nu1| + |[z]| |nu2|) per unit
    length of each jump triple (arguments as classify takes them): 8/3 on
    axis walls, sqrt(2)*8/3 on diagonal walls.  Raises ValueError if any
    triple is inadmissible."""
    if not classify(plus, minus, nu).all():
        raise ValueError("sigma is defined on admissible jump triples only")
    jump = np.abs(np.asarray(plus, dtype=float) - np.asarray(minus, dtype=float))
    nu = np.abs(np.asarray(nu, dtype=float))
    return (4.0 / 3.0) * (jump[..., 0] * nu[..., 0] + jump[..., 1] * nu[..., 1])


def total_variations(m: MeshPotential) -> tuple[float, float, float, float]:
    """(|D1 w|, |D2 w|, |D1 z|, |D2 z|) over the domain: the sums over the
    mesh's jump set of |[w]| or |[z]| times |nu1| or |nu2| times the
    length."""
    segs = m.jumps
    jump = np.abs(segs.plus - segs.minus)
    # terms[k] = |[w]| |nu1|, |[w]| |nu2|, |[z]| |nu1|, |[z]| |nu2| times length[k]
    terms = jump[:, :, None] * np.abs(segs.nu)[:, None, :] * segs.length[:, None, None]
    # exact sums: a running sum over a long jump set drifts past
    # limit_energy's 1e-12 cross-check
    d1w, d2w, d1z, d2z = map(math.fsum, terms.reshape(-1, 4).T.tolist())
    return d1w, d2w, d1z, d2z


def limit_energy(m: MeshPotential) -> float:
    """Limit functional H = (4/3)(|D1 w| + |D2 z|), cross-checked against the
    per-segment surface density sum; both sums run over the mesh's jump
    set."""
    segs = m.jumps
    d1w, _, _, d2z = total_variations(m)
    via_tv = (4.0 / 3.0) * (d1w + d2z)
    via_sigma = math.fsum((sigma(segs.plus, segs.minus, segs.nu) * segs.length).tolist())
    if abs(via_tv - via_sigma) > 1e-12 * max(1.0, abs(via_tv)):
        raise AssertionError(
            f"limit energy mismatch: {via_tv} (total variation) vs {via_sigma} (sigma)"
        )
    return via_tv


_EXAMPLE_KINDS = (
    "vertical_wall",
    "horizontal_wall",
    "diagonal_wall",
    "four_quadrant",
    "laminate",
)


SNAP = 2 ** 20  # example breakpoints lie on the rational grid 1/SNAP


def _snap(x: float) -> float:
    return round(x * SNAP) / SNAP


def _grid_mesh(xs, ys, f, domain: Domain) -> MeshPotential:
    """Tensor grid of breakpoints, each rectangle split along its
    anti-diagonal; heights sampled from f."""
    xs = list(xs)
    ys = list(ys)
    nxv = len(xs)
    verts = [(x, y) for y in ys for x in xs]
    tris = []
    for j in range(len(ys) - 1):
        for i in range(nxv - 1):
            v00 = j * nxv + i
            v10 = v00 + 1
            v01 = v00 + nxv
            v11 = v01 + 1
            tris.append((v00, v10, v01))
            tris.append((v10, v11, v01))
    heights = [f(x, y) for (x, y) in verts]
    return MeshPotential(
        vertices=np.array(verts, dtype=float),
        triangles=np.array(tris, dtype=int),
        heights=np.array(heights, dtype=float),
        domain=domain,
    )


def build_example(kind: str, domain: Domain | None = None, n: int = 3) -> MeshPotential:
    """Named jump geometries on a rectangle.

    vertical_wall / horizontal_wall: one axis wall through the center.
    diagonal_wall: the anti-diagonal wall x + y = const through the center
    (square domains only; the wall is the full diagonal chord).
    four_quadrant: a J1 wall and a J2 wall crossing at the center.
    laminate: n parallel vertical walls at equal spacing.

    Breakpoint coordinates snap to the rational grid 1/SNAP so that the
    +-1 gradients are exact in floating point.
    """
    if kind not in _EXAMPLE_KINDS:
        raise ValueError(f"unknown example kind {kind!r}")
    d = domain if domain is not None else Domain()
    x0, y0, x1, y1 = d.corners()
    if kind == "vertical_wall":
        c = _snap(0.5 * (x0 + x1))
        return _grid_mesh([x0, c, x1], [y0, y1], lambda x, y: y + abs(x - c), d)
    if kind == "horizontal_wall":
        c = _snap(0.5 * (y0 + y1))
        return _grid_mesh([x0, x1], [y0, c, y1], lambda x, y: x + abs(y - c), d)
    if kind == "diagonal_wall":
        if abs(d.width - d.height) > 1e-12 * max(1.0, d.width):
            raise ValueError("diagonal_wall needs a square domain")
        c = x0 + y1  # level x + y = c is the anti-diagonal of the square
        verts = np.array([(x0, y0), (x1, y0), (x0, y1), (x1, y1)], dtype=float)
        tris = np.array([(0, 1, 2), (1, 3, 2)], dtype=int)
        heights = np.abs(verts[:, 0] + verts[:, 1] - c)
        return MeshPotential(vertices=verts, triangles=tris, heights=heights, domain=d)
    if kind == "four_quadrant":
        cx = _snap(0.5 * (x0 + x1))
        cy = _snap(0.5 * (y0 + y1))
        return _grid_mesh(
            [x0, cx, x1], [y0, cy, y1], lambda x, y: abs(x - cx) + abs(y - cy), d
        )
    # laminate
    if n < 1:
        raise ValueError("laminate needs n >= 1 walls")
    if n + 1 > d.width * SNAP:  # narrower strips would snap onto each other
        raise ValueError(
            f"laminate strips must be at least 1/{SNAP} wide: n must be at most "
            f"{math.floor(d.width * SNAP) - 1}"
        )
    xs = [_snap(x0 + k * d.width / (n + 1)) for k in range(n + 2)]
    xs[0], xs[-1] = x0, x1
    # triangle-wave heights: slope alternates between the n+1 strips
    hts = {xs[0]: 0.0}
    for k in range(n + 1):
        hts[xs[k + 1]] = hts[xs[k]] + (-1.0) ** k * (xs[k + 1] - xs[k])

    def f(x, y):
        return y + hts[x]

    return _grid_mesh(xs, [y0, y1], f, d)


_LABEL_COLORS = {
    (1, 1): "#4477aa",
    (1, -1): "#ee6677",
    (-1, 1): "#228833",
    (-1, -1): "#ccbb44",
}


def mesh_to_svg(m: MeshPotential) -> str:
    """SVG of the labeled triangles (four-color scheme, one color per
    chirality pair) with the mesh's jump segments overlaid."""
    labels = m.labels
    x0, y0, x1, y1 = m.domain.corners()
    scale = 400.0 / max(x1 - x0, y1 - y0)

    def pt(x, y):
        return (x - x0) * scale, (y1 - y) * scale  # flip y for screen coords

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{(x1 - x0) * scale:.0f}" height="{(y1 - y0) * scale:.0f}">'
    ]
    # each vertex formatted once, from Python floats
    corners = [f"{px:.3f},{py:.3f}" for px, py in (pt(x, y) for x, y in m.vertices.tolist())]
    for (a, b, c), label in zip(m.triangles.tolist(), labels.tolist()):
        color = _LABEL_COLORS[tuple(label)]
        parts.append(
            f'<polygon points="{corners[a]} {corners[b]} {corners[c]}" fill="{color}" '
            f'stroke="none"/>'
        )
    segs = m.jumps
    for a, b in zip(segs.p.tolist(), segs.q.tolist()):
        (px, py), (qx, qy) = pt(*a), pt(*b)
        parts.append(
            f'<line x1="{px:.3f}" y1="{py:.3f}" x2="{qx:.3f}" y2="{qy:.3f}" '
            f'stroke="black" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
