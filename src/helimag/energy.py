"""Microscopic energies of the frustrated chain/lattice model and their exact
double-well decomposition.

The renormalized energy is

    H = 1/(sqrt(2)*lam*delta^(3/2)) * (1/2) * lam^2 *
        sum |u(i+2,j) - (alpha/2) u(i+1,j) + u(i,j)|^2   (+ vertical analogue)

summed over interior stencils only.  It splits exactly, bond pair by bond
pair, into a Modica-Mortola form

    (1/2 eps) lam^2 [W(w_i) + W(w_{i+1})] + eps lam^2 rho * |d1 w|^2

with W(s) = (1 - s^2)^2 and a correcting factor rho depending on the two
bond angles; the split is an identity in exact arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .chirality import _chirality_arrays
from .lattice import (
    Domain,
    ModelParams,
    SpinField,
    chain_keep,
    det_sum,
    index_mask,
)

CSV_HEADER = "lambda,delta,epsilon,H_total,H_hor,H_ver,potential,gradient"


def W(s):
    """Double-well potential (1 - s^2)^2 with wells at s = +-1."""
    s = np.asarray(s, dtype=float)
    return (1.0 - s * s) ** 2


@dataclass
class EnergyReport:
    """Total and per-part energies.  potential/gradient parts are present
    only when produced by the decomposition."""

    total: float
    horizontal: float
    vertical: float
    term_count: int
    potential_part: Optional[float] = None
    gradient_part: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def csv_row(self, params: ModelParams) -> str:
        pot = "" if self.potential_part is None else repr(self.potential_part)
        grad = "" if self.gradient_part is None else repr(self.gradient_part)
        return (
            f"{params.lam!r},{params.delta!r},{params.epsilon!r},"
            f"{self.total!r},{self.horizontal!r},{self.vertical!r},{pot},{grad}"
        )


def prefactor(params: ModelParams, lam: float, one_d: bool = False) -> float:
    """Prefactor of H: 1/(sqrt(2)*lam*delta^(3/2)) times lam^2/2 on a plane
    or lam/2 on a chain."""
    scale = 0.5 * lam * (1.0 if one_d else lam)
    return scale / (math.sqrt(2.0) * lam * params.delta ** 1.5)


def _terms(a: np.ndarray, axis: int, width: int = 3) -> tuple[np.ndarray, ...]:
    """Views a[k], ..., a[k + width - 1] of the terms of the width-point
    stencils along ``axis`` (-1 for rows, -2 for columns), one per stencil
    index k: the three-point stencils by default, bond pairs with width 2."""
    n = max(a.shape[axis] - width + 1, 0)
    if axis == -1:
        return tuple(a[..., j : j + n] for j in range(width))
    return tuple(a[..., j : j + n, :] for j in range(width))


def _windows(a: np.ndarray, axis: int) -> np.ndarray:
    """Read-only view w of the stacked (2, ny, nx) array ``a`` with
    w[:, j] = _terms(a, axis)[j], shape (2, 3) + the stencils' shape."""
    lo = _terms(a, axis)[0]
    return as_strided(
        lo,
        shape=lo.shape[:1] + (3,) + lo.shape[1:],
        strides=lo.strides[:1] + (a.strides[axis],) + lo.strides[1:],
        writeable=False,
    )


class StencilState:
    """A stack of angle arrays: their stacked (cos, sin) ``cs`` of shape
    (2, rows, ny, nx), their stacked masked three-point stencils per
    direction as views in grid orientation ((2, rows, ny, nx - 2) along
    rows, then (2, rows, ny - 2, nx) along columns on a plane), the energy
    of every row that each direction contributes (``parts``, one list of
    floats per direction) and every row's total energy (``total``, a list).

    The views that ``StencilEnergy.evaluate`` and ``gradient`` read and
    write through are made once per state, so a state can take a later
    stack's values in place: ``runs`` holds them per direction."""

    def __init__(self, cs: np.ndarray, stencils: list, runs: list, axes: tuple[int, ...]) -> None:
        self.cs = cs
        self.axes = axes
        self.parts: list[list[float]] = []  # set by evaluate
        self.total: list[float] = []
        self.trig = (cs[0], cs[1])
        self.stencils = stencils
        self.runs = runs
        self._operands: list = [None] * cs.shape[1]

    def operands(self, row: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per direction, row ``row``'s stencils as (2, 1, ...) and the
        windows of its (sin, cos), the perpendicular spin (-sin, cos) up to
        the sign, that ``gradient`` multiplies; made on first use, since a
        row whose gradient is never taken needs neither."""
        if self._operands[row] is None:
            self._operands[row] = [
                (h[:, row, None], _windows(self.cs[::-1, row], axis))
                for h, axis in zip(self.stencils, self.axes)
            ]
        return self._operands[row]


class StencilEnergy:
    """The renormalized energy of angle arrays of one shape, evaluated on
    stacks of them.

    The index set and the prefactor are computed once.  ``evaluate`` takes
    a stack's stacked cos/sin and stacked stencils (one ufunc call per step
    for every row and both spin components) and sums each row; ``gradient``
    reuses one row of that state.

    The stencils along an axis are computed over the whole contiguous
    cos/sin array at once, from the array shifted by one and by two steps
    along the axis, which is faster than over strided views; the entries
    whose terms cross the edge of a grid row or of the grid are computed
    too, but never summed or differentiated.  On a plane the stencils are
    masked by the interior index set of ``domain``; a single row over
    ``interval`` sums only the kept terms, because zero padding would
    regroup the pairwise sum.  A mask that keeps every term is skipped.
    Each row is summed as one contiguous array, pairwise in the grid's
    row-major order as ``det_sum`` sums it, so a row's energy does not
    depend on the stack it is in.  The squares of ``evaluate`` (per stack
    size) and the products of ``gradient`` go to scratch arrays of the
    model, shared by the directions.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        params: ModelParams,
        lam: float,
        domain: Optional[Domain] = None,
        interval: Optional[tuple[float, float]] = None,
    ) -> None:
        ny, nx = shape
        self.shape = shape
        self.alpha = params.alpha
        self.one_d = interval is not None
        # the index set over the whole grid; its views of the stencils'
        # shape, in grid orientation, mask each direction
        if self.one_d:
            self.axes = (-1,)
            keep = chain_keep(nx, interval, lam)
            grid = np.zeros(shape, dtype=bool)
            grid[0, : keep.size] = keep
        else:
            self.axes = (-1, -2)
            grid = index_mask(domain, lam, nx, ny)
        masks = [grid[:, : max(nx - 2, 0)] if axis == -1 else grid[: max(ny - 2, 0), :]
                 for axis in self.axes]
        self.half_alpha = params.alpha / 2.0
        self.prefactor = prefactor(params, lam, one_d=self.one_d)
        self.term_count = sum(int(np.count_nonzero(m)) for m in masks)
        # one row's stencil shape and the flat step along the axis, per
        # direction
        self._shapes = [m.shape for m in masks]
        self._steps = [1 if axis == -1 else nx for axis in self.axes]
        # per direction: the grid mask, or None if it keeps every term; and
        # on a cut chain the flat indices of the kept terms, gathered into
        # one contiguous array per row before the sum
        self._rules = [
            (None, None) if m.all() else (grid, np.flatnonzero(m) if self.one_d else None)
            for m in masks
        ]
        # a non-finite angle turns its stencils' squares, and so the total,
        # into NaN (masked terms too: NaN * 0 is NaN), except on a cut chain,
        # which drops terms, or where there is no stencil
        self.always_scan = (self.one_d and self._rules[0][0] is not None) or not any(
            m.size for m in masks
        )
        self._squares: dict[int, list] = {}
        self._gradient_work = None

    def _square_views(self, rows: int) -> list:
        """Per direction: h * h of a stack of ``rows``, its two components
        and the first's (rows, terms) view; one scratch array per stack
        size."""
        views = self._squares.get(rows)
        if views is None:
            sizes = [math.prod(s) for s in self._shapes]
            squares = np.empty(2 * rows * max(sizes))
            views = []
            for s, size in zip(self._shapes, sizes):
                h2 = squares[: 2 * rows * size].reshape((2, rows) + s)
                views.append((h2, h2[0], h2[1], h2[0].reshape(rows, size)))
            self._squares[rows] = views
        return views

    def _state(self, cs: np.ndarray) -> StencilState:
        """A state over the stacked cos/sin ``cs``, with its stencil arrays
        and the views ``evaluate`` works through."""
        cs = np.ascontiguousarray(cs)
        flat = cs.reshape(-1)
        stencils, runs = [], []
        for (mask, kept), step, (my, mx), squares in zip(
            self._rules, self._steps, self._shapes, self._square_views(cs.shape[1])
        ):
            full = np.empty(cs.shape)
            n = max(flat.size - 2 * step, 0)
            full.reshape(-1)[n:] = 0.0  # written by no step but masked: keep them finite
            h = full[..., :my, :mx]
            terms = (flat[:n], flat[step : step + n], flat[2 * step : 2 * step + n])
            stencils.append(h)
            runs.append((mask, kept, *terms, full.reshape(-1)[:n], full, h, *squares))
        return StencilState(cs, stencils, runs, self.axes)

    def evaluate(
        self,
        psi: np.ndarray,
        into: Optional[StencilState] = None,
        cs: Optional[np.ndarray] = None,
    ) -> StencilState:
        """The stencils and energies of the stack of angle arrays ``psi``,
        shape (rows, ny, nx).

        Without ``into`` the state is new, over ``cs`` when the caller has
        already taken psi's stacked cos/sin; with ``into``, a state of this
        model and stack size, its arrays are overwritten in place.  ``psi``
        is scanned for a non-finite angle only when a row's total is not
        finite or when such an angle could miss every summed term.
        """
        if psi.shape[1:] != self.shape:
            raise ValueError(f"expected a stack of {self.shape} angle arrays, got {psi.shape}")
        if into is None:
            state = self._state(spin_vectors(psi) if cs is None else cs)
        else:
            state = into
            np.cos(psi, out=state.trig[0])
            np.sin(psi, out=state.trig[1])
        half_alpha, pf = self.half_alpha, self.prefactor
        parts = []
        for mask, kept, lo, mid, hi, out, full, h, h2, h2x, h2y, flat in state.runs:
            # every row and both spin components at once, rounded in this
            # order: mid * alpha/2, then hi - that, then + lo; each row is
            # summed pairwise as det_sum sums it, the kept terms of a cut
            # chain gathered first
            np.multiply(mid, half_alpha, out=out)
            np.subtract(hi, out, out=out)
            np.add(out, lo, out=out)
            if mask is not None:
                np.multiply(full, mask, out=full)
            np.square(h, out=h2)  # h * h, faster on the strided stencils
            np.add(h2x, h2y, out=h2x)
            if kept is not None:
                flat = flat.take(kept, axis=1)
            parts.append([pf * t for t in np.add.reduce(flat, 1).tolist()])
        state.parts = parts
        state.total = total = parts[0] if len(parts) == 1 else [a + b for a, b in zip(*parts)]
        # the energies are not negative: their sum is finite when each is,
        # and a sum that overflows only costs a scan
        if self.always_scan or not math.isfinite(sum(total)):
            if not np.isfinite(psi).all():
                raise ValueError("spin angles must be finite")
        return state

    def report(self, state: StencilState, row: int = 0) -> EnergyReport:
        hor = state.parts[0][row]
        ver = state.parts[1][row] if len(state.parts) == 2 else 0.0
        return EnergyReport(
            total=state.total[row],
            horizontal=hor,
            vertical=ver,
            term_count=self.term_count,
        )

    def _gradient_scratch(self):
        """The accumulator g, the coefficients of the three stencil terms
        and, per direction, a (2, 3) + stencil-shaped product array p with
        its halves p[0] and p[1], and the pairs (view of g, row j of p[1])
        that add term j into g."""
        g = np.zeros(self.shape)
        products = np.empty(6 * max(math.prod(s) for s in self._shapes))
        work = []
        for axis, s in zip(self.axes, self._shapes):
            p = products[: 6 * math.prod(s)].reshape((2, 3) + s)
            targets = _terms(g, axis)
            work.append((p, p[0], p[1], tuple(zip(targets, p[1]))))
        coef = np.array([2.0, -self.alpha, 2.0])[:, None, None]
        return g, coef, work

    def gradient(self, state: StencilState, row: int = 0) -> np.ndarray:
        """Angle gradient of the energy of row ``row`` of ``state``, a new
        array."""
        if self._gradient_work is None:
            self._gradient_work = self._gradient_scratch()
        g, coef, work = self._gradient_work
        g.fill(0.0)
        for (head, windows), (p, p_sin, p_cos, adds) in zip(state.operands(row), work):
            # d|v|^2/dpsi_k = 2 v . u_perp(k) * coefficient of u_k in v, for
            # the three terms j at once; with u_perp = (-sin, cos) the dot
            # product is the cos product minus the sin product, which rounds
            # exactly as adding the (-sin) product does
            np.multiply(head, windows, out=p)
            np.subtract(p_cos, p_sin, out=p_cos)
            np.multiply(p_cos, coef, out=p_cos)
            for target, term in adds:  # j = 0, 1, 2
                np.add(target, term, out=target)
        return g * self.prefactor


def spin_vectors(angles: np.ndarray) -> np.ndarray:
    """The stacked unit vectors (cos, sin) of an angle array, or of a stack
    of them, shape (2,) + angles.shape."""
    cs = np.empty((2,) + angles.shape)
    np.cos(angles, out=cs[0])
    np.sin(angles, out=cs[1])
    return cs


def energy_H(
    u: SpinField, domain: Domain, params: ModelParams, cs: Optional[np.ndarray] = None
) -> EnergyReport:
    """Renormalized energy over the interior index set; zero exactly on the
    four helical ground states.  ``cs`` is ``spin_vectors(u.angles)`` when
    the caller has it."""
    model = StencilEnergy((u.ny, u.nx), params, u.spacing, domain=domain)
    return model.report(model.evaluate(u.angles[None], cs=None if cs is None else cs[:, None]))


def energy_H_1d(
    chain: SpinField, interval: tuple[float, float], params: ModelParams
) -> float:
    """One-dimensional renormalized energy of a single row of spins over an
    interval, with the 1D prefactor 1/(sqrt(2)*lam*delta^(3/2)) * lam/2."""
    if chain.ny != 1:
        raise ValueError("energy_H_1d expects a single-row spin field")
    a, b = interval
    if not b > a:
        raise ValueError("empty interval")
    model = StencilEnergy((1, chain.nx), params, chain.spacing, interval=interval)
    return model.evaluate(chain.angles[None]).total[0]


_RHO_METHODS = ("definition", "closed_form")
# closed_form is singular where cos((t1+t2)/4) = 0, i.e. the corners
# (pi, pi) and (-pi, -pi)
_RHO_SINGULAR_TOL = 1e-12


def rho(theta1, theta2, method: str = "closed_form"):
    """Correcting factor of the double-well decomposition.

    definition:  [-(1 - cos(t1+t2)) + sin^2 t1 + sin^2 t2]
                 / [2 (sin(t2/2) - sin(t1/2))^2],  with rho(t, t) = 1.
    closed_form: cos^2((t2-t1)/4) * cos(t1+t2) / cos^2((t1+t2)/4).

    Both agree wherever t1 != t2 and the closed form is defined; the closed
    form is the numerically stable one near the diagonal.  Accepts scalars
    or arrays; angles are expected in [-pi, pi].
    """
    if method not in _RHO_METHODS:
        raise ValueError(f"unknown rho method {method!r}")
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    if np.any(np.abs(t1) > math.pi + 1e-12) or np.any(np.abs(t2) > math.pi + 1e-12):
        raise ValueError("rho expects angles in [-pi, pi]")
    if method == "definition":
        # numerator -(1-cos(t1+t2)) + sin^2 t1 + sin^2 t2 and denominator
        # 2 (sin(t2/2) - sin(t1/2))^2 in factored trigonometric form,
        # 2 cos(t1+t2) sin^2((t2-t1)/2) over 8 cos^2((t1+t2)/4) sin^2((t2-t1)/4),
        # which avoids the catastrophic cancellation near the diagonal t1 = t2.
        # The sines of t2-t1 are divided before squaring: for differences
        # near 1e-160 their squares are subnormal and keep few digits.
        half = np.sin((t2 - t1) / 2.0)
        quarter = np.sin((t2 - t1) / 4.0)
        # quarter underflows to 0 only when t2 - t1 is below float
        # resolution; fall back to the diagonal convention there
        diag = (t1 == t2) | (quarter == 0.0)
        ratio = half / np.where(diag, 1.0, quarter)
        den = 4.0 * np.cos((t1 + t2) / 4.0) ** 2
        out = np.where(diag, 1.0, np.cos(t1 + t2) * ratio * ratio / den)
        return out if out.ndim else float(out)
    den = np.cos((t1 + t2) / 4.0) ** 2
    if np.any(den < _RHO_SINGULAR_TOL):
        raise ValueError("closed_form rho is singular at (pi, pi) and (-pi, -pi)")
    out = np.cos((t2 - t1) / 4.0) ** 2 * np.cos(t1 + t2) / den
    return out if out.ndim else float(out)


def mm_decomposition(
    u: SpinField, domain: Domain, params: ModelParams, cs: Optional[np.ndarray] = None
) -> EnergyReport:
    """Exact Modica-Mortola split of the renormalized energy.

    The gradient part is accumulated as eps/delta * sum of the rho numerator
    2 cos(t1+t2) sin^2((t2-t1)/2); this equals eps lam^2 sum rho |d w|^2
    identically (the chirality difference cancels against rho's denominator)
    and stays finite at the corner singularities.  ``cs`` is
    ``spin_vectors(u.angles)`` when the caller has it.
    """
    lam = u.spacing
    eps = params.epsilon
    delta = params.delta
    th, tv, w, z = _chirality_arrays(*(u.vectors() if cs is None else cs), delta)
    mask = index_mask(domain, lam, u.nx, u.ny)
    # in grid orientation, like StencilEnergy: bond pairs along rows, then
    # along columns
    runs = ((-1, th, w, mask[:, : u.nx - 2]), (-2, tv, z, mask[: u.ny - 2, :]))
    parts = []  # (potential, gradient) per direction
    count = 0
    for axis, t, c, m in runs:
        t1, t2 = _terms(t, axis, 2)
        wells = _terms(W(c), axis, 2)  # W once per bond, read by both its stencils
        p = (0.5 / eps) * lam * lam * (wells[0] + wells[1]) * m
        del wells  # not held beside the next direction's arrays
        g = (eps / delta) * (2.0 * np.cos(t1 + t2) * np.sin((t2 - t1) / 2.0) ** 2) * m
        parts.append((det_sum(p), det_sum(g)))
        count += int(np.count_nonzero(m))
    (ph, gh), (pv, gv) = parts
    pot, grad = ph + pv, gh + gv
    return EnergyReport(
        total=pot + grad,
        horizontal=ph + gh,
        vertical=pv + gv,
        term_count=count,
        potential_part=pot,
        gradient_part=grad,
    )
