"""Loop-level references for the mesh evaluation path: the first-match loop
over every triangle, the clipped extension built on its barycentric values,
the mollifier as a per-shift double sum, the jump set built from a dict
of edges and merged segment by segment, the scalar jump-triple classifier
and the classify document built from them; the SVG formatted from numpy
scalars; the example potentials on
refined grids and their shuffled, rotated and three-owner variants; and two
valid meshes on the unit square whose wall jump_set cannot see."""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from helimag.continuum import GRAD_TOL, MERGE_TOL, JumpSet, MeshPotential, validate_mesh
from helimag.lattice import Domain


def first_match(m, x, y):
    """(triangle, s, u) per point: the first triangle whose barycentric test
    (slack 1e-9 relative) accepts the point, and its coordinates there;
    triangle -1 where none does."""
    px, py = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    shape = px.shape
    px = px.ravel()
    py = py.ravel()
    tri = np.full(px.shape, -1)
    ss = np.zeros(px.shape)
    uu = np.zeros(px.shape)
    v = m.vertices
    tol = 1e-9 * max(1.0, np.abs(v).max())
    for t, (a, b, c) in enumerate(m.triangles):
        e1 = v[b] - v[a]
        e2 = v[c] - v[a]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        rx = px - v[a][0]
        ry = py - v[a][1]
        s = (rx * e2[1] - ry * e2[0]) / det
        u = (ry * e1[0] - rx * e1[1]) / det
        inside = (s >= -tol) & (u >= -tol) & (s + u <= 1.0 + tol) & (tri < 0)
        tri[inside] = t
        ss[inside] = s[inside]
        uu[inside] = u[inside]
    return tri.reshape(shape), ss.reshape(shape), uu.reshape(shape)


def extension(m):
    """Extension of the mesh potential: the barycentric value at the nearest
    point of the domain plus the triangle's gradient times the offset."""
    x0, y0, x1, y1 = m.domain.corners()
    grads = m.gradients()
    h = m.heights

    def ext(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        cx = np.clip(x, x0, x1)
        cy = np.clip(y, y0, y1)
        tri, s, u = first_match(m, cx, cy)
        assert np.all(tri >= 0)
        a, b, c = (m.triangles[tri, k] for k in range(3))
        val = h[a] + s * (h[b] - h[a]) + u * (h[c] - h[a])
        return val + grads[tri, 0] * (x - cx) + grads[tri, 1] * (y - cy)

    return ext


def double_sum_mollify(ext, kernel, epsilon, order=24):
    """Pointwise mollifier: the weighted sum of ext over every pair of
    quadrature shifts, accumulated shift by shift."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    wk = wts * kernel.k1(nodes)
    wk = wk / wk.sum()

    def phi_eps(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for a in range(order):
            sx = x + epsilon * nodes[a]
            for b in range(order):
                out += (wk[a] * wk[b]) * ext(sx, y + epsilon * nodes[b])
        return out

    return phi_eps


@dataclass
class JumpSegment:
    """One jump segment of the loop reference."""

    p: tuple[float, float]
    q: tuple[float, float]
    nu: tuple[float, float]
    plus: tuple[float, float]
    minus: tuple[float, float]

    @property
    def length(self) -> float:
        return math.hypot(self.q[0] - self.p[0], self.q[1] - self.p[1])


def dict_jump_set(m):
    """Jump set from a dict of edges in order of first appearance: each edge
    with exactly two owners and different labels, normal oriented
    lexicographically positive, plus trace on the side of the first owner's
    centroid when nu points there; merged by merge_segments."""
    labels = validate_mesh(m)
    v = m.vertices
    edges = {}
    for t, (a, b, c) in enumerate(m.triangles):
        for i, j in ((a, b), (b, c), (c, a)):
            key = (min(int(i), int(j)), max(int(i), int(j)))
            edges.setdefault(key, []).append(t)
    raw = []
    for (i, j), tris in edges.items():
        if len(tris) != 2:
            continue
        t1, t2 = tris
        if labels[t1] == labels[t2]:
            continue
        p = v[i]
        q = v[j]
        tang = q - p
        tang = tang / np.hypot(tang[0], tang[1])
        nu = np.array([tang[1], -tang[0]])
        if nu[0] < -MERGE_TOL or (abs(nu[0]) <= MERGE_TOL and nu[1] < 0.0):
            nu = -nu
        mid = 0.5 * (p + q)
        cent1 = v[m.triangles[t1]].mean(axis=0)
        plus_t, minus_t = (t1, t2) if (cent1 - mid) @ nu > 0.0 else (t2, t1)
        raw.append(
            JumpSegment(
                p=(float(p[0]), float(p[1])),
                q=(float(q[0]), float(q[1])),
                nu=(float(nu[0]), float(nu[1])),
                plus=tuple(map(float, labels[plus_t])),
                minus=tuple(map(float, labels[minus_t])),
            )
        )
    return merge_segments(raw)


def merge_segments(raw):
    """Segments grouped in a dict by rounded normal, offset and traces,
    groups sorted by (normal, offset), and each group's edges sorted along
    its first edge's tangent and joined while the next starts within
    MERGE_TOL of the previous one's end."""
    groups = {}
    for s in raw:
        nu = np.array(s.nu)
        offset = nu @ np.array(s.p)
        key = (
            round(s.nu[0] / MERGE_TOL),
            round(s.nu[1] / MERGE_TOL),
            round(offset / MERGE_TOL),
            s.plus,
            s.minus,
        )
        groups.setdefault(key, []).append(s)
    out = []
    for key, segs in sorted(groups.items(), key=lambda kv: kv[0][:3]):
        nu = np.array(segs[0].nu)
        tang = np.array([-nu[1], nu[0]])
        ivals = []
        for s in segs:
            ta = float(np.array(s.p) @ tang)
            tb = float(np.array(s.q) @ tang)
            pa, pb = (s.p, s.q) if ta <= tb else (s.q, s.p)
            ivals.append((min(ta, tb), max(ta, tb), pa, pb))
        ivals.sort(key=lambda r: r[0])
        cur = ivals[0]
        for nxt in ivals[1:]:
            if nxt[0] <= cur[1] + MERGE_TOL:
                cur = (cur[0], nxt[1], cur[2], nxt[3])
            else:
                out.append(
                    JumpSegment(p=cur[2], q=cur[3], nu=segs[0].nu,
                                plus=segs[0].plus, minus=segs[0].minus)
                )
                cur = nxt
        out.append(
            JumpSegment(p=cur[2], q=cur[3], nu=segs[0].nu,
                        plus=segs[0].plus, minus=segs[0].minus)
        )
    return out


def columns(segs):
    """A JumpSet, or a list of JumpSegment, as a dict of Python lists, one
    per JumpSet column; compare by repr to tell -0.0 from 0.0."""
    names = [f.name for f in fields(JumpSet)]
    if isinstance(segs, JumpSet):
        return {name: getattr(segs, name).tolist() for name in names}
    return {name: [list(v) if isinstance(v, tuple) else v
                   for v in (getattr(s, name) for s in segs)] for name in names}


def rows(segs, index):
    """The JumpSet of segs' rows at index (a slice or an index array)."""
    return JumpSet(*(getattr(segs, f.name)[index] for f in fields(JumpSet)))


def classify_triple(plus, minus, nu):
    """Scalar jump-triple rule: J1 (only w jumps), J2 (only z jumps), J3
    (both), or inadmissible when nothing jumps or the jump is not parallel
    to nu; ValueError for a trace off {+-1}^2 or a non-unit nu."""
    pw, pz = float(plus[0]), float(plus[1])
    mw, mz = float(minus[0]), float(minus[1])
    for t in (pw, pz, mw, mz):
        if min(abs(t - 1.0), abs(t + 1.0)) > GRAD_TOL:
            raise ValueError("traces must take values in {+-1}^2")
    nx, ny = float(nu[0]), float(nu[1])
    if abs(math.hypot(nx, ny) - 1.0) > GRAD_TOL:
        raise ValueError("nu must be a unit vector")
    dw = pw - mw
    dz = pz - mz
    if abs(dw) < GRAD_TOL and abs(dz) < GRAD_TOL:
        return "inadmissible"
    if abs(dw * ny - dz * nx) > GRAD_TOL:
        return "inadmissible"
    if abs(dz) < GRAD_TOL:
        return "J1"
    if abs(dw) < GRAD_TOL:
        return "J2"
    return "J3"


def classify_document(m):
    """The text of classify.json from the loop references: one row per
    segment of dict_jump_set, the total variations as exact sums of
    per-segment terms and the limit (4/3)(|D1 w| + |D2 z|)."""
    segs = dict_jump_set(m)
    terms = {"D1w": [], "D2w": [], "D1z": [], "D2z": []}
    for s in segs:
        dw = abs(s.plus[0] - s.minus[0])
        dz = abs(s.plus[1] - s.minus[1])
        terms["D1w"].append(dw * abs(s.nu[0]) * s.length)
        terms["D2w"].append(dw * abs(s.nu[1]) * s.length)
        terms["D1z"].append(dz * abs(s.nu[0]) * s.length)
        terms["D2z"].append(dz * abs(s.nu[1]) * s.length)
    tvs = {name: math.fsum(t) for name, t in terms.items()}
    return json.dumps({
        "segments": [
            {"p": list(s.p), "q": list(s.q), "nu": list(s.nu), "plus": list(s.plus),
             "minus": list(s.minus), "length": s.length,
             "class": classify_triple(s.plus, s.minus, s.nu)}
            for s in segs
        ],
        "total_variations": tvs,
        "limit_energy": (4.0 / 3.0) * (tvs["D1w"] + tvs["D2z"]),
    })


def mesh_svg(m, segments):
    """mesh_to_svg's text with the triangles formatted from numpy rows and
    numpy scalars, every corner of every triangle anew."""
    from helimag.continuum import _LABEL_COLORS

    labels = validate_mesh(m)
    x0, y0, x1, y1 = m.domain.corners()
    scale = 400.0 / max(x1 - x0, y1 - y0)

    def pt(x, y):
        return (x - x0) * scale, (y1 - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{(x1 - x0) * scale:.0f}" height="{(y1 - y0) * scale:.0f}">'
    ]
    for t, (a, b, c) in enumerate(m.triangles):
        pts = " ".join(
            f"{px:.3f},{py:.3f}" for px, py in (pt(*m.vertices[k]) for k in (a, b, c))
        )
        parts.append(f'<polygon points="{pts}" fill="{_LABEL_COLORS[labels[t]]}" stroke="none"/>')
    for a, b in zip(segments.p.tolist(), segments.q.tolist()):
        (px, py), (qx, qy) = pt(*a), pt(*b)
        parts.append(
            f'<line x1="{px:.3f}" y1="{py:.3f}" x2="{qx:.3f}" y2="{qy:.3f}" '
            f'stroke="black" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def edge_owners(m):
    """Owner triangles of each edge (i, j), i < j, in triangle order."""
    owners = {}
    for t, tri in enumerate(m.triangles.tolist()):
        for i, j in zip(tri, tri[1:] + tri[:1]):
            owners.setdefault((min(i, j), max(i, j)), []).append(t)
    return owners


def with_three_owner_edge(m, rng):
    """m with a triangle next to a jump edge appended again, vertices rotated,
    so each of its interior edges has three owners; the domain grows by the
    triangle's area so the mesh still validates."""
    labels = validate_mesh(m)
    jumps = [ts[0] for ts in edge_owners(m).values()
             if len(ts) == 2 and labels[ts[0]] != labels[ts[1]]]
    t = jumps[rng.integers(len(jumps))]
    a, b, c = m.vertices[m.triangles[t]]
    area = 0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
    d = m.domain
    return MeshPotential(
        vertices=m.vertices,
        triangles=np.vstack([m.triangles, np.roll(m.triangles[t], 1)]),
        heights=m.heights,
        domain=Domain(x0=d.x0, y0=d.y0, width=d.width + area / d.height, height=d.height),
    )


def mesh_variant(m, variant, rng):
    if variant == "shuffled":
        return MeshPotential(m.vertices, m.triangles[rng.permutation(len(m.triangles))],
                             m.heights, m.domain)
    if variant == "rotated":
        cols = (np.arange(3) + rng.integers(0, 3, (len(m.triangles), 1))) % 3
        tris = np.take_along_axis(m.triangles, cols, axis=1)
        return MeshPotential(m.vertices, tris, m.heights, m.domain)
    if variant == "three_owners":
        return with_three_owner_edge(m, rng)
    return m


def three_owner_mesh():
    """Unit square split along the diagonal y = x into labels (1, -1) below
    and (-1, 1) above, plus a sliver triangle (area 2^-33, inside the area
    check's slack) on the upper side that also owns the diagonal.  The
    diagonal has three owners, so jump_set skips the wall."""
    d = 2.0 ** -33
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5 - d, 0.5 + d)])
    return MeshPotential(
        vertices=verts,
        triangles=np.array([(0, 1, 2), (0, 2, 3), (0, 2, 4)]),
        heights=np.abs(verts[:, 0] - verts[:, 1]),
        domain=Domain(),
    )


def split_diagonal_mesh(x0, t):
    """phi = |x + y - (2 x0 + 1)| on the unit square with lower left corner
    (x0, x0): the anti-diagonal wall in two edges split at the vertex
    (x0 + t, x0 + (1 - t)), four triangles around it."""
    verts = np.array([(x0, x0), (x0 + 1.0, x0), (x0, x0 + 1.0), (x0 + 1.0, x0 + 1.0),
                      (x0 + t, x0 + (1.0 - t))])
    return MeshPotential(
        vertices=verts,
        triangles=np.array([(0, 1, 4), (0, 4, 2), (1, 3, 4), (4, 3, 2)]),
        heights=np.abs(verts[:, 0] + verts[:, 1] - (x0 + x0 + 1.0)),
        domain=Domain(x0=x0, y0=x0),
    )


def hanging_node_mesh():
    """phi = y + |x - 1/2| on the unit square: two triangles on the left of
    the wall x = 1/2 and a fan of three on the right from its midpoint.  The
    left triangle's edge on the wall has one owner, as do the two right
    halves, so jump_set finds no wall."""
    verts = np.array([(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0),
                      (1.0, 0.0), (1.0, 1.0), (0.5, 0.5)])
    return MeshPotential(
        vertices=verts,
        triangles=np.array([(0, 1, 2), (0, 2, 3), (6, 1, 4), (6, 4, 5), (6, 5, 2)]),
        heights=verts[:, 1] + np.abs(verts[:, 0] - 0.5),
        domain=Domain(),
    )


def refined_mesh(kind, k, rng):
    """Example potential of one of the five kinds on a k x k grid of the unit
    square split into 2k^2 triangles, with its walls on seeded grid lines."""
    g = np.arange(k + 1) / k
    x, y = (a.ravel() for a in np.meshgrid(g, g))
    c, cy = g[np.sort(rng.choice(np.arange(1, k), 2, replace=False))]
    if kind == "vertical_wall":
        h = y + np.abs(x - c)
    elif kind == "horizontal_wall":
        h = x + np.abs(y - c)
    elif kind == "four_quadrant":
        h = np.abs(x - c) + np.abs(y - cy)
    elif kind == "diagonal_wall":
        h = np.abs(x + y - rng.integers(1, 2 * k) / k)
    else:  # laminate: the slope in x flips at up to three walls
        walls = g[np.sort(rng.choice(np.arange(1, k), min(3, k - 1), replace=False))]
        flips = (x[:, None] > walls[None, :]).sum(axis=1)
        h = y + x * (-1.0) ** flips
        h += 2.0 * ((-1.0) ** np.arange(walls.size) * walls
                    * (x[:, None] > walls[None, :])).sum(axis=1)
    j, i = (a.ravel() for a in np.mgrid[0:k, 0:k])
    v00 = j * (k + 1) + i
    tris = np.stack([v00, v00 + 1, v00 + k + 1, v00 + 1, v00 + k + 2, v00 + k + 1], axis=1)
    return MeshPotential(vertices=np.stack([x, y], axis=1), triangles=tris.reshape(-1, 3),
                         heights=h, domain=Domain())
