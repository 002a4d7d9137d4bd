"""Loop-level references for the mesh evaluation path: the first-match loop
over every triangle, the clipped extension built on its barycentric values,
the mollifier as a per-shift double sum, and the jump set built from a dict
of edges; the example potentials on refined grids; and two valid meshes on
the unit square whose wall jump_set cannot see."""

import numpy as np

from helimag.continuum import MERGE_TOL, JumpSegment, MeshPotential, _merge_segments, \
    validate_mesh
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


def dict_jump_set(m):
    """Jump set from a dict of edges in order of first appearance: each edge
    with exactly two owners and different labels, normal oriented
    lexicographically positive, plus trace on the side of the first owner's
    centroid when nu points there; merged by the package's segment merge."""
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
    return _merge_segments(raw)


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
