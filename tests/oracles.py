"""Oracles that only tests use: the three-point stencil as one array
expression and the energies of many chains at once built on it, a chain's
index set as a per-stencil mask on the interval's own tolerance, the
exhaustive minimum of a short chain over an angle grid, and the
distributional curl of a chirality pair against a smooth bump with analytic
derivatives.  They are kept apart from the code they are checked against:
the chain energies are summed by ``three_point``, not by ``StencilEnergy``
(``brute_force_1d`` calls ``energy_H_1d`` only on a chain with no free
site), and the probe is its own bump, not ``recovery._bump``."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from helimag.chirality import ChiralityPair
from helimag.energy import energy_H_1d, prefactor
from helimag.lattice import GEOM_TOL, ModelParams, SpinField
from helimag.optimize import BoundaryCondition
from helimag.recovery import _BUMP_CLIP


def three_point(a: np.ndarray, half_alpha: float) -> np.ndarray:
    """Three-point stencil a[k+2] - (alpha/2) a[k+1] + a[k] along the last
    axis, rounded in that order into one new array; the vertical stencil of
    a grid is the stencil of its transpose."""
    h = half_alpha * a[..., 1:-1]
    np.subtract(a[..., 2:], h, out=h)
    h += a[..., :-2]
    return h


def chain_keep(n: int, interval: tuple[float, float], lam: float) -> np.ndarray:
    """Mask of the stencils i of an n-site chain whose cells [lam i, lam(i+1)]
    and [lam(i+1), lam(i+2)] both lie in the interval, widened by GEOM_TOL
    times the larger of 1 and its endpoints' magnitudes."""
    a, b = interval
    tol = GEOM_TOL * max(1.0, abs(a), abs(b))
    k = np.arange(max(n - 2, 0), dtype=float)

    def inside(k):
        return (lam * k >= a - tol) & (lam * (k + 1.0) <= b + tol)

    return inside(k) & inside(k + 1.0)


def _chain_energies(psis: np.ndarray, params: ModelParams) -> np.ndarray:
    """Vectorized 1D energies of many chains at once (all interior stencils)."""
    h = three_point(np.stack([np.cos(psis), np.sin(psis)]), params.alpha / 2.0)
    terms = h[0] * h[0] + h[1] * h[1]
    return prefactor(params, one_d=True) * terms.sum(axis=1)


def brute_force_1d(
    n_sites: int,
    m: int,
    params: ModelParams,
    bc: BoundaryCondition,
) -> tuple[float, np.ndarray, float]:
    """Exhaustive minimum of the 1D energy over an m-point angle grid per
    free site.

    Returns (minimum, argmin angle row, slack) where slack is the energy
    variation over the surrounding grid cell at the argmin.  Budget-limited
    to m**n_free <= 1e8 enumerations.
    """
    if bc.mask.shape != (1, n_sites):
        raise ValueError("boundary condition must cover a single chain row")
    free_idx = np.nonzero(~bc.mask[0])[0]
    n_free = len(free_idx)
    if n_free > 7:
        raise ValueError("brute force supports at most 7 free sites")
    if m ** max(n_free, 1) > 1e8:
        raise ValueError("enumeration budget exceeded")
    lam = params.lam
    base = bc.values[0].copy()
    if n_free == 0:
        u = SpinField.from_angles(base[None, :], lam)
        e = energy_H_1d(u, (0.0, n_sites * lam), params)
        return e, base, 0.0
    grid = -math.pi + 2.0 * math.pi * np.arange(m) / m
    combos = np.stack(
        np.meshgrid(*([grid] * n_free), indexing="ij"), axis=-1
    ).reshape(-1, n_free)
    psis = np.broadcast_to(base, (combos.shape[0], n_sites)).copy()
    psis[:, free_idx] = combos
    energies = _chain_energies(psis, params)
    k = int(np.argmin(energies))
    best = psis[k].copy()
    e_min = float(energies[k])
    # slack: variation over the surrounding grid cell
    h = 2.0 * math.pi / m
    neigh = []
    for offs in itertools.product((-h, 0.0, h), repeat=n_free):
        if all(o == 0.0 for o in offs):
            continue
        p = best.copy()
        p[free_idx] += np.array(offs)
        neigh.append(p)
    e_neigh = _chain_energies(np.array(neigh), params)
    slack = float(e_neigh.max() - e_min)
    return e_min, best, slack


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
