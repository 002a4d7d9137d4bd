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

from .chirality import transform
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


def _cell_mask(u: SpinField, domain: Domain) -> np.ndarray:
    cols, rows = domain.axes_inside(np.arange(u.nx), np.arange(u.ny), u.spacing)
    return np.outer(rows, cols)


def energy_E(u: SpinField, domain: Domain, alpha: float) -> float:
    """Reduced lattice energy: ferromagnetic nearest-neighbour rows/columns
    against antiferromagnetic third neighbours,

        -alpha lam^2 sum u.u(+1)  +  lam^2 sum u.u(+2),

    summed over bonds whose cells lie inside the domain.
    """
    lam = u.spacing
    ux, uy = u.vectors()
    c = _cell_mask(u, domain)
    nn = det_sum(
        (ux[:, :-1] * ux[:, 1:] + uy[:, :-1] * uy[:, 1:]) * (c[:, :-1] & c[:, 1:])
    ) + det_sum((ux[:-1, :] * ux[1:, :] + uy[:-1, :] * uy[1:, :]) * (c[:-1, :] & c[1:, :]))
    third = 0.0
    if u.nx >= 3:
        third += det_sum(
            (ux[:, :-2] * ux[:, 2:] + uy[:, :-2] * uy[:, 2:]) * (c[:, :-2] & c[:, 2:])
        )
    if u.ny >= 3:
        third += det_sum(
            (ux[:-2, :] * ux[2:, :] + uy[:-2, :] * uy[2:, :]) * (c[:-2, :] & c[2:, :])
        )
    return -alpha * lam * lam * nn + lam * lam * third


def prefactor(params: ModelParams, lam: float, one_d: bool = False) -> float:
    """Prefactor of H: 1/(sqrt(2)*lam*delta^(3/2)) times lam^2/2 on a plane
    or lam/2 on a chain."""
    scale = 0.5 * lam * (1.0 if one_d else lam)
    return scale / (math.sqrt(2.0) * lam * params.delta ** 1.5)


def three_point(a: np.ndarray, half_alpha: float) -> np.ndarray:
    """Three-point stencil a[k+2] - (alpha/2) a[k+1] + a[k] along the last
    axis, rounded in that order into one new array; the vertical stencil of
    a grid is the stencil of its transpose."""
    h = half_alpha * a[..., 1:-1]
    np.subtract(a[..., 2:], h, out=h)
    h += a[..., :-2]
    return h


@dataclass
class StencilState:
    """One angle array's stacked (cos, sin) ``cs`` of shape (2, ny, nx), its
    stacked unsquared three-point stencils of shape (2, rows, n - 2) per
    direction with the stencil axis last (the vertical ones are those of
    ``cs.transpose(0, 2, 1)``), and the energy each direction contributes."""

    cs: np.ndarray
    stencils: list[np.ndarray]
    parts: list[float]

    @property
    def total(self) -> float:
        return self.parts[0] + self.parts[1] if len(self.parts) == 2 else self.parts[0]


class StencilEnergy:
    """The renormalized energy of angle arrays of one shape.

    The index set and the prefactor are computed once.  ``evaluate`` checks
    an angle array is finite, takes its stacked cos/sin and stacked stencils
    (one ufunc call per step for both spin components) and sums them;
    ``gradient`` reuses that state.  On a plane the stencils are masked by
    the interior index set of ``domain``; a single row over ``interval``
    sums only the kept terms, because zero padding would regroup the
    pairwise sum.  A mask that keeps every term is skipped.
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
        self.alpha = params.alpha
        self.one_d = interval is not None
        if self.one_d:
            self.masks = [chain_keep(nx, interval, lam)]
        else:
            mask = index_mask(domain, lam, nx, ny)
            # oriented like the stencils: the vertical mask is transposed
            self.masks = [mask[:, : max(nx - 2, 0)], mask[: max(ny - 2, 0), :].T]
        self.prefactor = prefactor(params, lam, one_d=self.one_d)
        self.term_count = sum(int(np.count_nonzero(m)) for m in self.masks)
        self.masks = [None if m.all() else m for m in self.masks]

    def evaluate(self, psi: np.ndarray) -> StencilState:
        """The stencils and energy of the angle array ``psi``."""
        if not np.isfinite(psi).all():
            raise ValueError("spin angles must be finite")
        cs = np.empty((2,) + psi.shape)
        np.cos(psi, out=cs[0])
        np.sin(psi, out=cs[1])
        state = StencilState(cs, [], [])
        for vertical, mask in enumerate(self.masks):
            # both spin components at once
            h = three_point(cs.transpose(0, 2, 1) if vertical else cs, self.alpha / 2.0)
            h2 = h * h
            sq = h2[0] + h2[1]
            if mask is not None:
                sq = sq[:, mask] if self.one_d else sq * mask
            state.stencils.append(h)
            # sum in the grid's row-major order
            state.parts.append(self.prefactor * det_sum(sq.T if vertical else sq))
        return state

    def report(self, state: StencilState) -> EnergyReport:
        hor = state.parts[0]
        ver = state.parts[1] if len(state.parts) == 2 else 0.0
        return EnergyReport(
            total=state.total, horizontal=hor, vertical=ver, term_count=self.term_count
        )

    def gradient(self, state: StencilState) -> np.ndarray:
        """Angle gradient of the energy of ``state``."""
        cs = state.cs
        g = np.zeros(cs.shape[1:])
        # the perpendicular spin (-sin, cos), stacked like cs
        r = cs[::-1].copy()
        r[0] *= -1.0
        for vertical, (h, mask) in enumerate(zip(state.stencils, self.masks)):
            rv, gv = (r.transpose(0, 2, 1), g.T) if vertical else (r, g)
            if mask is not None:
                h = h * mask
            n = h.shape[-1]
            # d|v|^2/dpsi_k = 2 v . u_perp(k) * coefficient of u_k in v
            for j, c in enumerate((2.0, -self.alpha, 2.0)):
                p = h * rv[..., j : j + n]
                gv[..., j : j + n] += c * (p[0] + p[1])
        g *= self.prefactor
        return g


def energy_H(u: SpinField, domain: Domain, params: ModelParams) -> EnergyReport:
    """Renormalized energy over the interior index set; zero exactly on the
    four helical ground states."""
    model = StencilEnergy((u.ny, u.nx), params, u.spacing, domain=domain)
    return model.report(model.evaluate(u.angles))


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
    return model.evaluate(chain.angles).total


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


def mm_decomposition(u: SpinField, domain: Domain, params: ModelParams) -> EnergyReport:
    """Exact Modica-Mortola split of the renormalized energy.

    The gradient part is accumulated as eps/delta * sum of the rho numerator
    2 cos(t1+t2) sin^2((t2-t1)/2); this equals eps lam^2 sum rho |d w|^2
    identically (the chirality difference cancels against rho's denominator)
    and stays finite at the corner singularities.
    """
    lam = u.spacing
    eps = params.epsilon
    delta = params.delta
    theta, pair = transform(u, params)
    th = theta.theta_hor.values  # (ny, nx-1)
    tv = theta.theta_ver.values  # (ny-1, nx)
    w = pair.w.values
    z = pair.z.values
    mask = index_mask(domain, lam, u.nx, u.ny)
    # the vertical arrays run transposed, stencil axis last, like StencilEnergy
    runs = ((th, w, mask[:, : u.nx - 2]), (tv.T, z.T, mask[: u.ny - 2, :].T))
    parts = []  # (potential, gradient) per direction
    count = 0
    for vertical, (t, c, m) in enumerate(runs):
        t1, t2 = t[:, :-1], t[:, 1:]
        p = (0.5 / eps) * lam * lam * (W(c[:, :-1]) + W(c[:, 1:])) * m
        g = (eps / delta) * (2.0 * np.cos(t1 + t2) * np.sin((t2 - t1) / 2.0) ** 2) * m
        if vertical:  # sum in the grid's row-major order
            p, g = p.T, g.T
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

