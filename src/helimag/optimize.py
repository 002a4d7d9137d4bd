"""Minimization of the renormalized lattice energy over spin angles under
chirality boundary conditions.

The optimization variable is the angle lifting psi, which makes the energy
smooth and unconstrained.  Boundary data freezes border layers two sites
deep (the three-point stencil needs two determined neighbors), encoding a
chirality pair per side through helical angle sequences.  A brute-force
enumeration over small chains serves as an oracle.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import EnergyReport, StencilEnergy, energy_H_1d, prefactor, three_point
from .lattice import Domain, ModelParams, SpinField, det_sum

LOG_CSV_HEADER = "iter,energy,grad_norm,step"

STOP_GRAD_NORM = 1e-8  # max-norm of the gradient at which descent converges
ARMIJO = 1e-4  # sufficient-decrease factor of the line search
BACKTRACK = 0.5  # step factor per line-search backtrack


@dataclass
class BoundaryCondition:
    """Frozen-site mask with prescribed angles; unfrozen entries of
    ``values`` are ignored."""

    mask: np.ndarray  # (ny, nx) bool, True = frozen
    values: np.ndarray  # (ny, nx) angles

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        self.values = np.asarray(self.values, dtype=float)
        if self.mask.shape != self.values.shape:
            raise ValueError("mask and values must have matching shapes")

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = np.array(psi, dtype=float, copy=True)
        out[self.mask] = self.values[self.mask]
        return out


def chain_bc(n: int, params: ModelParams, left: int, right: int) -> BoundaryCondition:
    """Two frozen sites at each end of an n-site chain, following helices of
    chirality ``left`` and ``right`` (each +-1)."""
    if n < 5:
        raise ValueError("chain needs at least 5 sites for two free layers")
    if left not in (-1, 1) or right not in (-1, 1):
        raise ValueError("chiralities must be +-1")
    beta = params.helix_angle
    mask = np.zeros((1, n), dtype=bool)
    values = np.zeros((1, n))
    mask[0, :2] = True
    mask[0, -2:] = True
    values[0, 0] = 0.0
    values[0, 1] = left * beta
    # anchor the right helix so equal chiralities give one global helix and
    # opposite chiralities center the transition
    anchor = 0.5 * (left + right) * beta * (n - 1)
    values[0, n - 2] = anchor - right * beta
    values[0, n - 1] = anchor
    return BoundaryCondition(mask=mask, values=values)


def two_sided_bc(
    nx: int,
    ny: int,
    params: ModelParams,
    left_pair: tuple[int, int],
    right_pair: tuple[int, int],
) -> BoundaryCondition:
    """Freeze the left and right border layers (two columns deep) with the
    helical angles of the given chirality pairs; the vertical chirality of
    each side also fixes the angles along the frozen columns."""
    beta = params.helix_angle
    mask = np.zeros((ny, nx), dtype=bool)
    values = np.zeros((ny, nx))
    jj = np.arange(ny)[:, None]
    ii = np.arange(nx)[None, :]
    wl, zl = left_pair
    wr, zr = right_pair
    left_vals = beta * (wl * ii + zl * jj)
    anchor = 0.5 * (wl + wr) * beta * (nx - 1)
    right_vals = beta * (wr * (ii - (nx - 1)) + zr * jj) + anchor
    mask[:, :2] = True
    mask[:, -2:] = True
    values[:, :2] = left_vals[:, :2]
    values[:, -2:] = right_vals[:, -2:]
    return BoundaryCondition(mask=mask, values=values)


@dataclass
class MinimizeOptions:
    max_iter: int = 20000
    max_backtracks: int = 60
    init_step: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be at least 1, got {self.max_backtracks}")
        if not (math.isfinite(self.init_step) and self.init_step > 0):
            raise ValueError(f"init_step must be positive and finite, got {self.init_step}")


def _stencil_energy(
    shape: tuple[int, int], domain: Domain, params: ModelParams, lam: float
) -> StencilEnergy:
    """The energy of angle arrays of ``shape``; a single row is a chain
    measured on the domain's x-extent with the 1D energy."""
    if shape[0] == 1:
        return StencilEnergy(shape, params, lam, interval=(domain.x0, domain.x0 + domain.width))
    return StencilEnergy(shape, params, lam, domain=domain)


def energy_gradient(
    psi: np.ndarray,
    domain: Domain,
    params: ModelParams,
    bc: Optional[BoundaryCondition],
    lam: float,
) -> np.ndarray:
    """Analytic gradient of the renormalized energy with respect to the site
    angles; zero at frozen sites.  Single-row grids use the 1D energy."""
    u = SpinField.from_angles(psi, lam)
    if bc is not None and bc.mask.shape != u.angles.shape:
        raise ValueError("boundary condition shape mismatch")
    model = _stencil_energy(u.angles.shape, domain, params, lam)
    g = model.gradient(model.evaluate(u.angles))
    if bc is not None:
        g[bc.mask] = 0.0
    return g


@dataclass
class MinimizeResult:
    """Final iterate and energy, the per-iteration log, why the run stopped
    ("converged", "max_iter" or "stalled") and the line-search counts: one
    objective evaluation at the start and one per trial, each trial either
    accepted or a backtrack."""

    psi: np.ndarray
    report: EnergyReport
    log: list[tuple[int, float, float, float]]
    reason: str
    objective_evals: int
    accepted: int
    backtracks: int

    @property
    def converged(self) -> bool:
        return self.reason == "converged"

    @property
    def stalled(self) -> bool:
        return self.reason == "stalled"


def log_to_csv(log: list[tuple[int, float, float, float]]) -> str:
    buf = io.StringIO()
    buf.write(LOG_CSV_HEADER + "\n")
    for it, e, gn, st in log:
        buf.write(f"{it},{e!r},{gn!r},{st!r}\n")
    return buf.getvalue()


def minimize_H(
    psi0: np.ndarray,
    domain: Domain,
    params: ModelParams,
    bc: BoundaryCondition,
    opts: Optional[MinimizeOptions] = None,
) -> MinimizeResult:
    """Backtracking gradient descent on the renormalized energy.

    Every accepted step strictly decreases the energy; terminates at the
    gradient tolerance or the iteration cap.  A line search that fails after
    max_backtracks reductions returns the best iterate with ``stalled`` set.

    The index set and the prefactor are computed once per call.  Each trial
    is one ``StencilEnergy.evaluate`` of its angle array, with no spin field
    built; the gradient at an accepted point and the final report reuse the
    accepted trial's.  Two states and two angle arrays alternate between the
    accepted point and the trial, so a rejected trial's arrays take the next
    trial's values and no trial allocates them.
    """
    opts = opts if opts is not None else MinimizeOptions()
    psi = bc.apply(np.asarray(psi0, dtype=float))
    lam = params.lam
    model = _stencil_energy(psi.shape, domain, params, lam)
    state = model.evaluate(psi)
    spare = None  # the state the next trial is written into
    trial = np.empty_like(psi)
    e = state.total
    evals, accepted, backtracks = 1, 0, 0
    step = opts.init_step
    log: list[tuple[int, float, float, float]] = []
    reason = "max_iter"
    for it in range(opts.max_iter):
        g = model.gradient(state)
        g[bc.mask] = 0.0
        gnorm = float(np.abs(g).max())
        log.append((it, e, gnorm, step))
        if gnorm <= STOP_GRAD_NORM:
            reason = "converged"
            break
        gsq = float(det_sum(g * g))
        step = min(step * 2.0, 1e6)  # optimistic growth, then backtrack
        for _ in range(opts.max_backtracks):
            np.subtract(psi, np.multiply(g, step, out=trial), out=trial)
            spare = model.evaluate(trial, into=spare)
            evals += 1
            if spare.total <= e - ARMIJO * step * gsq:
                break
            backtracks += 1
            step *= BACKTRACK
        else:
            reason = "stalled"
            break
        psi, trial = trial, psi
        state, spare = spare, state
        e = state.total
        accepted += 1
    return MinimizeResult(
        psi=psi,
        report=model.report(state),
        log=log,
        reason=reason,
        objective_evals=evals,
        accepted=accepted,
        backtracks=backtracks,
    )


def linear_init(bc: BoundaryCondition) -> np.ndarray:
    """Default initialization: per-row linear interpolation of the boundary
    lifting between the innermost frozen columns."""
    ny, nx = bc.mask.shape
    psi = np.array(bc.values, dtype=float, copy=True)
    for j in range(ny):
        frozen = np.nonzero(bc.mask[j])[0]
        if len(frozen) == 0:
            continue
        left = frozen[frozen < nx // 2]
        right = frozen[frozen >= nx // 2]
        if len(left) == 0 or len(right) == 0:
            continue
        a, b = left.max(), right.min()
        if b > a + 1:
            t = np.arange(a, b + 1) - a
            psi[j, a : b + 1] = psi[j, a] + (psi[j, b] - psi[j, a]) * t / (b - a)
    return psi


def profile_init(
    n: int, params: ModelParams, left: int, right: int
) -> np.ndarray:
    """Chain initialization from the optimal transition profile: chirality
    w(x) interpolating ``left`` to ``right`` through tanh(x/eps), integrated
    to angles, with a linear correction so both frozen ends are met."""
    lam = params.lam
    eps = params.epsilon
    beta = params.helix_angle
    x = lam * (np.arange(n - 1) + 0.5)
    c = 0.5 * lam * (n - 1)
    w = 0.5 * (left + right) - 0.5 * (left - right) * np.tanh((x - c) / eps)
    theta = 2.0 * np.arcsin(np.clip(math.sqrt(params.delta / 2.0) * w, -1.0, 1.0))
    psi = np.concatenate([[0.0], np.cumsum(theta)])
    # meet the right frozen anchor up to a spread-out slope fix
    target = 0.5 * (left + right) * beta * (n - 1) - right * beta
    err = target - psi[n - 2]
    psi += err * np.arange(n) / (n - 2)
    return psi[None, :]


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
    energies = _chain_energies(psis, params, lam, n_sites)
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
    e_neigh = _chain_energies(np.array(neigh), params, lam, n_sites)
    slack = float(e_neigh.max() - e_min)
    return e_min, best, slack


def _chain_energies(
    psis: np.ndarray, params: ModelParams, lam: float, n_sites: int
) -> np.ndarray:
    """Vectorized 1D energies of many chains at once (all interior stencils)."""
    h = three_point(np.stack([np.cos(psis), np.sin(psis)]), params.alpha / 2.0)
    terms = h[0] * h[0] + h[1] * h[1]
    return prefactor(params, lam, one_d=True) * terms.sum(axis=1)
