"""Recovery sequences: mollify a continuum potential, discretize it on the
lattice, lift to spins, and sweep the lattice energy against the limit.

The pipeline is

    phi (mesh)  ->  phi_bar (piecewise affine extension to the plane)
                ->  phi^eps(x) = int eta(z) phi_bar(x + a*eps*z) dz
                ->  phi_n(i,j) = phi^eps(lam*i, lam*j)
                ->  psi = arccos(1-delta) * phi_n / lam  ->  u = (cos, sin)(psi)

The mollifier eta is a fixed tensor-product bump; the smoothing scale a*eps
carries a width multiplier a chosen so that the smoothed-step chirality
profile nearly attains the optimal interfacial energy (see WALL_WIDTH
below).  The bond angles of the lifted field satisfy
theta_hor = arccos(1-delta) * d1 phi_n exactly wherever that value stays in
[-pi, pi]; build_recovery counts the bonds where it leaves that range.

phi^eps is evaluated on the whole lattice at once, with the quadrature
only on a band.  The extension changes its affine map only across the
mesh's kink edges (continuum.kink_edges), and the rule is even with mass
1, so at every lattice point whose kernel support box misses those edges
phi^eps is the extension at the point itself.  build_recovery marks the
points whose box meets a kink edge (quadrature_band); mollify evaluates
the extension once at the lattice points and on the band sums the rule
line by line: the quadrature points of lattice row j lie on the lines
y = lam*j + a*eps*node, each line is affine between its crossings with
the kink edges, and one MeshPotential.locate call per run of rows finds
the map of every piece at its midpoint.  Each column's 24-node x-rule is
then a sum over the pieces it reaches, taken from prefix sums of the
weights, and the y-rule contracts the lines.  RecoveryResult counts the
rule's points, QUAD_ORDER^2 per lattice point of the band.

A mesh is immutable and computes its geometry and jump set once
(continuum.MeshPotential); the extension, the row pieces, pick_width and
gamma_sweep read them from the mesh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .chirality import ChiralityPair
from .continuum import CLASSES, MeshPotential, classify, kink_edges, limit_energy
from .energy import EnergyReport, W, energy_H
from .lattice import ModelParams, SpinField

# Width multiplier a for the smoothing scale a*eps.  The mollified step has
# chirality profile s(t) = 2K(t) - 1 (K the kernel CDF); the wall energy per
# unit length is a*int W(s) + (1/a)*int |s'|^2, minimized at
# a = sqrt(int |s'|^2 / int W(s)).  For the bump kernel this lands within
# 2.7% of the optimal 8/3.
WALL_WIDTH = 1.9724746408616411

# Diagonal walls see the kernel through the self-convolved profile
# s2 = 2*(K*k) - 1, which is wider; its own optimal multiplier (same formula,
# profile s2) lands within 0.7% of sqrt(2)*8/3.
DIAG_WALL_WIDTH = 1.4527824589214904

_BUMP_CLIP = 1.0 - 1e-12


def _bump(t: np.ndarray) -> np.ndarray:
    """Unnormalized C-infinity bump exp(-1/(1-t^2)) supported on [-1, 1]."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < _BUMP_CLIP
    tt = np.clip(t, -_BUMP_CLIP, _BUMP_CLIP)
    return np.where(inside, np.exp(-1.0 / (1.0 - tt * tt)), 0.0)


@functools.lru_cache(maxsize=16)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once
    per order (the eigen-solve behind them costs milliseconds)."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    wts.flags.writeable = False
    return nodes, wts


class Kernel:
    """Tensor-product mollifier eta(z1, z2) = k(z1) k(z2) whose factor k is
    the bump on [-1, 1] normalized to integral 1 (within 1e-10 by 200-point
    Gauss-Legendre quadrature)."""

    def __init__(self) -> None:
        nodes, wts = gauss_legendre(200)
        self._norm = float((wts * _bump(nodes)).sum())

    def k1(self, t: np.ndarray) -> np.ndarray:
        """Normalized 1D factor."""
        return _bump(t) / self._norm


@dataclass
class SweepSchedule:
    """Sequence of (lam, delta) steps; epsilon = lam/sqrt(2 delta) must be
    strictly decreasing and lam/sqrt(delta) must decrease to honor the
    scaling regime."""

    steps: list[ModelParams]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("schedule must not be empty")
        eps = [p.epsilon for p in self.steps]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon must be strictly decreasing along the schedule")
        reg = [p.lam / math.sqrt(p.delta) for p in self.steps]
        if any(b >= a for a, b in zip(reg, reg[1:])):
            raise ValueError("lam/sqrt(delta) must decrease along the schedule")

    @classmethod
    def default(
        cls, finest_n: int = 256, levels: int = 4, size: float = 1.0
    ) -> "SweepSchedule":
        """Halving lattice spacings ending at size/finest_n, with the coupling
        delta = lam^(2/3) (so eps = lam^(2/3)/sqrt(2) -> 0 and
        lam/sqrt(delta) = lam^(2/3) -> 0).  Raises ValueError unless
        levels >= 1 and the coarsest level keeps at least one cell."""
        if levels < 1 or finest_n // 2 ** (levels - 1) < 1:
            raise ValueError(
                "schedule needs levels >= 1 and finest_n >= 2**(levels-1); "
                f"got finest_n={finest_n}, levels={levels}"
            )
        steps = []
        for k in range(levels - 1, -1, -1):
            lam = size / (finest_n // (2 ** k))
            steps.append(ModelParams(lam=lam, delta=lam ** (2.0 / 3.0)))
        return cls(steps=steps)


def extend_potential(m: MeshPotential) -> Callable:
    """Extend the mesh potential to the whole plane.

    Each point maps to its nearest point of the closed (rectangular) domain;
    the affine map of the triangle located there is continued outward, so
    the extension is again piecewise affine with gradients in {+-1}^2.
    Inside the domain the evaluator agrees with the mesh interpolant, which
    is Lipschitz with constant at most sqrt(2).  Outside it the extension
    is not Lipschitz where a wall meets a domain side at a slant: across the
    outward ray from that point the two triangles' maps differ by their
    gradient jump times the distance from the side.  On diagonal_wall the
    chord ends at the corner (x0, y1), and above it the extension jumps by
    2 (y - y1) across x = x0.  The evaluator takes broadcasting inputs; a
    grid given as a row of x-values and a column of y-values is located
    block by block on the compact axes (see MeshPotential.locate).
    """
    x0, y0, x1, y1 = m.domain.corners()
    c0, gx, gy = m.affine_coefficients

    def ext(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = m.locate(np.clip(x, x0, x1), np.clip(y, y0, y1))
        # c0 + gx*x + gy*y, in place to keep fewer grid-sized arrays alive
        out = gx[t]
        out *= x
        out += c0[t]
        gyy = gy[t]
        gyy *= y
        out += gyy
        return out

    return ext


# Gauss-Legendre order of build_recovery's product rule (order^2 points
# per lattice point of the band)
QUAD_ORDER = 24

# Elements of every (quadrature lines x columns x crossings) array of
# mollify's row-piece sums: chunks split lines and columns until they fit.
# A run of lattice rows whose pieces are located together holds at most
# 16 * MOLLIFY_CHUNK booleans in MeshPotential.locate's bounding-box pass.
MOLLIFY_CHUNK = 2 ** 15


class _RowPieces:
    """extend_potential along horizontal lines, piece by piece.

    On the line y = Y the extension is c0 + gx*x + gy*Y with the triangle
    located at (clip(x), clip(Y)).  Between two consecutive crossings of
    the clipped line with the kink edges that map does not change, and the
    first and last pieces continue past the domain's sides.  A crossing
    counts at an edge's ends too, and an edge lying on the line adds both
    of its ends, so a vertex on the line where the map changes is always a
    crossing.  ``edges`` keeps kink_edges' (p, q)."""

    def __init__(self, m: MeshPotential) -> None:
        self.mesh = m
        self.corners = m.domain.corners()
        self.edges = p, q = kink_edges(m)
        up = p[:, 1] <= q[:, 1]
        self.lo = np.where(up[:, None], p, q)  # lower end of every edge
        self.hi = np.where(up[:, None], q, p)
        rise = self.hi[:, 1] - self.lo[:, 1]
        self.slope = (self.hi[:, 0] - self.lo[:, 0]) / np.where(rise > 0.0, rise, 1.0)
        self.slope[rise == 0.0] = 0.0
        self.flat = np.sort(self.lo[rise == 0.0, 1])
        self.lo_y = np.sort(self.lo[:, 1])
        self.hi_y = np.sort(self.hi[:, 1])
        self.c0, self.gx, self.gy = m.affine_coefficients

    def _clip_y(self, y: np.ndarray) -> np.ndarray:
        _, y0, _, y1 = self.corners
        return np.clip(y, y0, y1)

    def counts(self, y: np.ndarray) -> np.ndarray:
        """Number of crossings of each line y (any shape), counted on the
        sorted edge ends alone."""
        yc = self._clip_y(y)
        return (
            np.searchsorted(self.lo_y, yc, "right") - np.searchsorted(self.hi_y, yc, "left")
            + np.searchsorted(self.flat, yc, "right") - np.searchsorted(self.flat, yc, "left")
        )

    def pieces(self, y: np.ndarray):
        """The pieces of the lines y (R,): bounds (R, K+1), each line's
        ascending crossings between -inf and +inf, padded with +inf, and the
        maps a + g*x of the pieces between consecutive bounds, (R, K) each.
        One MeshPotential.locate call finds every piece's triangle at its
        clipped midpoint (padding pieces sit at x1 and weigh nothing)."""
        x0, _, x1, _ = self.corners
        yc = self._clip_y(y)
        order = np.argsort(yc, kind="stable")
        first = np.searchsorted(yc[order], self.lo[:, 1], "left")
        hits = np.searchsorted(yc[order], self.hi[:, 1], "right") - first
        e = np.repeat(np.arange(hits.size), hits)
        rows = order[np.arange(e.size) - np.repeat(np.cumsum(hits) - hits - first, hits)]
        x = self.lo[e, 0] + (yc[rows] - self.lo[e, 1]) * self.slope[e]
        on_line = self.hi[e, 1] == self.lo[e, 1]
        rows = np.concatenate([rows, rows[on_line]])
        x = np.clip(np.concatenate([x, self.hi[e[on_line], 0]]), x0, x1)
        by_row = np.lexsort((x, rows))
        rows, x = rows[by_row], x[by_row]
        per_row = np.bincount(rows, minlength=y.size)
        k = int(per_row.max(initial=0)) + 1
        bounds = np.full((y.size, k + 1), np.inf)
        bounds[:, 0] = -np.inf
        bounds[rows, np.arange(x.size) - np.repeat(np.cumsum(per_row) - per_row, per_row) + 1] = x
        clipped = np.clip(bounds, x0, x1)
        mid = 0.5 * (clipped[:, :-1] + clipped[:, 1:])
        t = self.mesh.locate(mid, yc[:, None])
        return bounds, self.c0[t] + self.gy[t] * y[:, None], self.gx[t]


def mollify(
    m: MeshPotential, kernel: Kernel, epsilon: float, xs, ys, mask=None
) -> np.ndarray:
    """phi^eps(x) = int eta(z) phi_bar(x + eps z) dz of the extension
    phi_bar of m (extend_potential) on the tensor grid of the ascending
    axis xs and the axis ys, an array of shape ys.shape + xs.shape, by
    QUAD_ORDER-point Gauss-Legendre product quadrature on the kernel
    support square (deterministic).  Exact on affine inputs; on kinked
    piecewise affine inputs the quadrature error is below 1e-4 (about 5e-5).
    Raises MeshError on a non-admissible mesh (kink_edges).

    mask, a boolean (ys.size, xs.size) array, marks the points that need
    quadrature; None is the all-True mask, the full rule.  Unless every
    point is masked, the extension is first evaluated once on the grid
    points themselves.  The rule is even with mass 1, so that is its value
    wherever the extension is affine on the point's support box, and the
    quadrature then overwrites the masked points.

    The quadrature points of lattice row j lie on the order lines
    y = ys[j] + eps*node[b], and on each line the extension is affine
    between its crossings with the kink edges (_RowPieces), so a line's
    x-rule at column c sums whole pieces: a piece with map a + g*x that
    holds the nodes xs[c] + eps*node[i], i in [lo, hi), adds
    W0*(a + g*xs[c]) + g*W1, W0 and W1 the sums of wk and wk*eps*node over
    [lo, hi) (see _sum_lines).  The y-rule then contracts each row's lines
    with wk.  Runs of consecutive rows holding masked points take their
    lines' pieces from one locate call; a run grows while M triangles *
    order * rows * (most pieces on a line) stays within 16 * MOLLIFY_CHUNK
    and at least half of its rows x (columns masked in any of them) is
    masked.  Every masked point is in its run's rectangle, and the rule
    there overwrites the extension's value.
    """
    return _mollify(_RowPieces(m), kernel, epsilon, xs, ys, mask)


def _mollify(rule: _RowPieces, kernel: Kernel, epsilon: float, xs, ys, mask) -> np.ndarray:
    """mollify on the mesh of the prebuilt pieces ``rule``."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    order = QUAD_ORDER
    nodes, wts = gauss_legendre(order)
    wk = wts * kernel.k1(nodes)
    # renormalize at this order so the discrete rule has total mass exactly
    # 1: affine inputs are then reproduced exactly
    wk = wk / wk.sum()
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out_shape = ys.shape + xs.shape
    xs, ys = xs.ravel(), ys.ravel()
    nx, ny = xs.size, ys.size
    if np.any(xs[1:] < xs[:-1]):
        raise ValueError("xs must be ascending")
    band = np.ones((ny, nx), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if band.shape != (ny, nx):
        raise ValueError(f"mask shape {band.shape} != (ny, nx) = {(ny, nx)}")
    out = (np.empty((ny, nx)) if band.all()
           else extend_potential(rule.mesh)(xs[None, :], ys[:, None]))
    shift = epsilon * nodes
    lines = ys[:, None] + shift  # (ny, order)
    x0, _, x1, _ = rule.corners
    # far above the rounding of x + shift and crossing - x
    slack = 1e-9 * (abs(x0) + abs(x1) + np.abs(xs).max(initial=0.0) + epsilon)
    per_line = rule.counts(lines).max(axis=1, initial=0) + 1  # most pieces per row
    owned = np.count_nonzero(band, axis=1)
    budget = 16 * MOLLIFY_CHUNK // max(1, rule.c0.size)
    j = 0
    while j < ny:
        if not owned[j]:
            j += 1
            continue
        cols, k, most, held = band[j], 1, per_line[j], owned[j]
        while j + k < ny and owned[j + k]:
            grown = cols | band[j + k]
            more = max(most, per_line[j + k])
            if ((k + 1) * order * more > budget
                    or 2 * (held + owned[j + k]) < (k + 1) * np.count_nonzero(grown)):
                break
            cols, k, most, held = grown, k + 1, more, held + owned[j + k]
        ci = np.flatnonzero(cols)
        pieces = rule.pieces(lines[j:j + k].ravel())
        out[j:j + k, ci] = _sum_lines(pieces, xs[ci], shift, wk, slack)
        j += k
    return out.reshape(out_shape)


def _sum_lines(pieces, xc, shift, wk, slack) -> np.ndarray:
    """The product rule at the ascending columns xc for the rows whose
    quadrature lines (wk.size per row, in order) carry the given pieces
    (_RowPieces.pieces), shape (rows, xc.size).

    The piece sums are taken by parts: a line's x-rule at column c is the
    map of the first piece within the column's reach summed over all
    nodes, plus each later crossing's jump in the map summed over the nodes
    right of it, the tails of wk and wk*shift (shift = eps*node) from the
    first such node on.  For a chunk of columns the first piece and the
    number of crossings within reach come from comparisons widened by
    slack, so that they cover every node: a crossing admitted left of all
    nodes adds its whole jump, one right of all nodes adds nothing.
    Chunks of columns keep (lines x columns x crossings) within
    MOLLIFY_CHUNK, and split the lines too where a single column does not
    fit."""
    bounds, a, g = pieces
    order = wk.size
    # tails[:, i]: sums of wk and wk*shift over the nodes i, i+1, ...
    tails = np.zeros((2, order + 1))
    tails[:, :order] = np.cumsum(np.stack([wk, wk * shift])[:, ::-1], axis=1)[:, ::-1]
    nl, npc = a.shape
    crossing = bounds[:, 1:]  # the +inf in the last column closes every line
    jump_a = np.diff(a, axis=1, append=a[:, -1:])
    jump_g = np.diff(g, axis=1, append=g[:, -1:])
    line = np.arange(nl)
    weight = wk[line % order, None]
    total = np.zeros((nl // order, xc.size))
    s, width = 0, xc.size
    while s < xc.size:
        width = min(width, xc.size - s)
        while True:
            cx = xc[s:s + width]
            first = np.count_nonzero(crossing < cx[0] + shift[0] - slack, axis=1)
            cuts = int((np.count_nonzero(crossing < cx[-1] + shift[-1] + slack, axis=1)
                        - first).max())
            if width == 1 or nl * width * max(cuts, 1) <= MOLLIFY_CHUNK:
                break
            width //= 2
        sums = (a[line, first][:, None] + g[line, first][:, None] * cx) * tails[0, 0]
        sums += g[line, first][:, None] * tails[1, 0]
        if cuts:
            at = np.minimum(first[:, None] + np.arange(cuts), npc - 1)
            step = max(1, MOLLIFY_CHUNK // (width * cuts))
            for r in range(0, nl, step):
                part = slice(r, r + step)
                rows = line[part, None]
                right = np.searchsorted(
                    shift, crossing[rows, at[part]][:, None, :] - cx[:, None], "right")
                t0, t1 = tails[0, right], tails[1, right]
                ja, jg = jump_a[rows, at[part]], jump_g[rows, at[part]]
                sums[part] += (np.einsum("rck,rk->rc", t0, ja)
                               + cx * np.einsum("rck,rk->rc", t0, jg)
                               + np.einsum("rck,rk->rc", t1, jg))
        total[:, s:s + width] = (sums * weight).reshape(-1, order, width).sum(axis=1)
        s += width
        if nl * 2 * width * max(cuts, 1) <= MOLLIFY_CHUNK:
            width *= 2
    return total


def quadrature_band(
    p: np.ndarray, q: np.ndarray, xs: np.ndarray, ys: np.ndarray, reach: float
) -> np.ndarray:
    """Boolean (ys.size, xs.size) mask of the grid points whose box
    [x - reach, x + reach] x [y - reach, y + reach] meets one of the
    segments from p[k] to q[k] ((E, 2) arrays); xs and ys are ascending.
    Box and segment meet unless the x axis, the y axis or the segment's unit
    normal nu separates them.  The axes leave each segment the block of
    columns and rows that its bounding box, grown by reach, spans (one
    searchsorted per bound for all segments); only that block takes the
    normal test."""
    band = np.zeros((ys.size, xs.size), dtype=bool)
    tang = q - p
    tang /= np.hypot(tang[:, 0], tang[:, 1])[:, None]
    nu = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    lo = np.minimum(p, q) - reach
    hi = np.maximum(p, q) + reach
    blocks = np.stack([
        np.searchsorted(xs, lo[:, 0]), np.searchsorted(xs, hi[:, 0], side="right"),
        np.searchsorted(ys, lo[:, 1]), np.searchsorted(ys, hi[:, 1], side="right"),
    ], axis=1)
    for (px, py), (nux, nuy), (i0, i1, j0, j1) in zip(p.tolist(), nu.tolist(), blocks.tolist()):
        dist = np.abs(nux * (xs[None, i0:i1] - px) + nuy * (ys[j0:j1, None] - py))
        band[j0:j1, i0:i1] |= dist <= reach * (abs(nux) + abs(nuy))
    return band


@dataclass
class RecoveryResult:
    spin: SpinField
    report: EnergyReport
    phi: np.ndarray  # (ny, nx) mollified potential at the lattice points
    overflow_count: int  # bonds whose angle difference leaves [-pi, pi]
    quadrature_points: int  # QUAD_ORDER^2 per lattice point of the band


def build_recovery(
    m: MeshPotential,
    params: ModelParams,
    kernel: Optional[Kernel] = None,
    width: Optional[float] = None,
) -> RecoveryResult:
    """Recovery spin field at one (lam, delta) with its energy report, at
    the smoothing width ``width`` (pick_width(m) when None).

    The mollifier runs its quadrature only on the band of lattice points
    whose kernel support box (half-width width*eps*max|node| plus
    MeshPotential.locate's pad) meets a kink edge of the mesh (kink_edges,
    which raises MeshError on a non-admissible mesh).  Off the band the
    extension is one affine map on the box, so the rule's value there is
    the extension at the point itself (see mollify).

    Bond angles where |arccos(1-delta) * d phi_n| would exceed pi are
    counted as overflows (the lifting identity fails there).  The count is
    a guard: the extension's partial derivatives lie in {-1, 0, 1} and the
    rule is a convex combination of its shifts, so |d phi_n| <= lam and
    every bond angle stays within arccos(1-delta) < pi/2 up to rounding.
    """
    kernel = kernel if kernel is not None else Kernel()
    width = pick_width(m) if width is None else width
    rule = _RowPieces(m)
    lam = params.lam
    x0, y0, _, _ = m.domain.corners()
    sides = (m.domain.width / lam, m.domain.height / lam)
    if not all(map(math.isfinite, sides)):
        raise ValueError("lattice size is not finite")
    nx, ny = (int(round(s)) for s in sides)
    if nx < 3 or ny < 3:
        raise ValueError("lattice too coarse for the domain")
    xs = x0 + lam * np.arange(nx)
    ys = y0 + lam * np.arange(ny)
    eps = width * params.epsilon
    nodes, _ = gauss_legendre(QUAD_ORDER)
    reach = eps * np.abs(nodes).max() + m.locate_pad.max()
    band = quadrature_band(*rule.edges, xs, ys, reach)
    phi = _mollify(rule, kernel, eps, xs, ys, band)
    psi = params.helix_angle * phi / lam
    u = SpinField.from_angles(psi, lam)
    over = sum(
        int(np.count_nonzero(np.abs(np.diff(psi, axis=axis)) > math.pi + 1e-12))
        for axis in (1, 0)
    )
    return RecoveryResult(
        spin=u,
        report=energy_H(u, m.domain, params),
        phi=phi,
        overflow_count=over,
        quadrature_points=QUAD_ORDER ** 2 * int(np.count_nonzero(band)),
    )


SWEEP_CSV_HEADER = (
    "epsilon,lambda,delta,H_n_total,H_n_hor,H_n_ver,H_limit,ratio,overflow_count"
)


@dataclass
class SweepRow:
    params: ModelParams
    h_total: float
    h_hor: float
    h_ver: float
    h_limit: float
    ratio: float
    overflow_count: int
    quadrature_points: int = 0
    failed: bool = False
    error: str = ""


@dataclass
class SweepTable:
    rows: list[SweepRow]
    segments: int  # merged jump segments of the mesh

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        for r in self.rows:
            # a failed row has no energies and no ratio
            values = (r.h_total, r.h_hor, r.h_ver, r.ratio)
            tot, hor, ver, ratio = ["failed"] * 4 if r.failed else map(repr, values)
            lines.append(
                f"{r.params.epsilon!r},{r.params.lam!r},{r.params.delta!r},"
                f"{tot},{hor},{ver},{r.h_limit!r},{ratio},{r.overflow_count}"
            )
        return "\n".join(lines) + "\n"


def pick_width(m: MeshPotential) -> float:
    """Default smoothing width for a mesh: the diagonal multiplier when every
    wall of its jump set is diagonal (class J3), the straight-wall
    multiplier otherwise."""
    segs = m.jumps
    if len(segs) and np.all(classify(segs.plus, segs.minus, segs.nu) == CLASSES.index("J3")):
        return DIAG_WALL_WIDTH
    return WALL_WIDTH


def gamma_sweep(m: MeshPotential, schedule: SweepSchedule) -> SweepTable:
    """Energy of the recovery field (default kernel, pick_width's width) at
    each schedule step against the limit energy; ratio = H_n / H_limit (0
    when the limit is 0).  Failed rows are marked and the sweep continues."""
    kernel = Kernel()
    h_lim = limit_energy(m)
    w = pick_width(m)
    rows: list[SweepRow] = []
    for params in schedule.steps:
        try:
            res = build_recovery(m, params, kernel=kernel, width=w)
        except (ValueError, ArithmeticError) as exc:
            rows.append(
                SweepRow(
                    params=params, h_total=math.nan, h_hor=math.nan, h_ver=math.nan,
                    h_limit=h_lim, ratio=math.nan, overflow_count=0,
                    failed=True, error=str(exc),
                )
            )
            continue
        ratio = res.report.total / h_lim if h_lim != 0.0 else 0.0
        rows.append(
            SweepRow(
                params=params,
                h_total=res.report.total,
                h_hor=res.report.horizontal,
                h_ver=res.report.vertical,
                h_limit=h_lim,
                ratio=ratio,
                overflow_count=res.overflow_count,
                quadrature_points=res.quadrature_points,
            )
        )
    return SweepTable(rows=rows, segments=len(m.jumps))


def profile_transition_energy() -> tuple[float, float, float]:
    """(total, potential, gradient) of the optimal profile tanh on [-20, 20]
    by 400-point Gauss-Legendre quadrature; total = 8/3 within 1e-6, the two
    parts equipartition at 4/3 each."""
    nodes, wts = gauss_legendre(400)
    scale = 20.0  # half the interval
    t = scale * nodes
    pot = scale * float((wts * W(np.tanh(t))).sum())
    # tanh' = 1/cosh^2, not 1 - tanh^2, so the parts are two formulas
    ds = 1.0 / np.cosh(t) ** 2
    grad = scale * float((wts * ds * ds).sum())
    return pot + grad, pot, grad


@dataclass
class CurlProbe:
    """Smooth compactly supported test function with analytic derivatives,
    xi(x) = exp(-1/(1 - r^2/R^2)) inside the ball of radius R."""

    cx: float
    cy: float
    radius: float

    def _core(self, x, y):
        rx = (np.asarray(x, dtype=float) - self.cx) / self.radius
        ry = (np.asarray(y, dtype=float) - self.cy) / self.radius
        r2 = rx * rx + ry * ry
        inside = r2 < _BUMP_CLIP
        r2c = np.clip(r2, 0.0, _BUMP_CLIP)
        val = np.where(inside, np.exp(-1.0 / (1.0 - r2c)), 0.0)
        d = np.where(inside, -2.0 / (1.0 - r2c) ** 2 * val, 0.0)
        return val, d * rx / self.radius, d * ry / self.radius

    def __call__(self, x, y):
        return self._core(x, y)[0]

    def dx(self, x, y):
        return self._core(x, y)[1]

    def dy(self, x, y):
        return self._core(x, y)[2]


def curl_residual(pair: ChiralityPair, probe: CurlProbe) -> float:
    """Distributional curl of (w, z) against the probe by the midpoint rule:

        <curl(w, z), xi> = -int w d2(xi) + int z d1(xi),

    with each chirality treated as piecewise constant on its bond's cell.
    The probe support must lie inside the rectangle covered by the grids.
    """
    lam = pair.w.spacing
    w = pair.w.values  # (ny, nx-1), cell (i, j)
    z = pair.z.values  # (ny-1, nx)
    nx = z.shape[1]
    ny = w.shape[0]
    if (
        probe.cx - probe.radius < -1e-12
        or probe.cy - probe.radius < -1e-12
        or probe.cx + probe.radius > nx * lam + 1e-12
        or probe.cy + probe.radius > ny * lam + 1e-12
    ):
        raise ValueError("probe support exceeds the grid's covered rectangle")
    xw = lam * (np.arange(w.shape[1]) + 0.5)
    yw = lam * (np.arange(w.shape[0]) + 0.5)
    xz = lam * (np.arange(z.shape[1]) + 0.5)
    yz = lam * (np.arange(z.shape[0]) + 0.5)
    term_w = float((w * probe.dy(xw[None, :], yw[:, None])).sum())
    term_z = float((z * probe.dx(xz[None, :], yz[:, None])).sum())
    return lam * lam * (-term_w + term_z)
