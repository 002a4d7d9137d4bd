"""Minimization of the renormalized lattice energy over spin angles under
chirality boundary conditions.

The optimization variable is the angle lifting psi, which makes the energy
smooth and unconstrained.  Boundary data freezes border layers two sites
deep (the three-point stencil needs two determined neighbors), encoding a
chirality pair per side through helical angle sequences.

As in ``energy``, the lattice spacing is ``ModelParams.lam`` and a single
row of angles is a chain: its energy is the 1D energy on the domain's
x-extent, and its boundary data is ``two_sided_bc``'s on a grid of one row.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import EnergyReport, StencilEnergy
from .lattice import Domain, ModelParams, SpinField, det_sum, helix

LOG_CSV_HEADER = "iter,energy,grad_norm,step"

STOP_GRAD_NORM = 1e-8  # max-norm of the gradient at which descent converges
ARMIJO = 1e-4  # sufficient-decrease factor of the line search
BACKTRACK = 0.5  # step factor per line-search backtrack
# trial steps the line search evaluates in one stacked pass on angle arrays
# of at most BATCH_SITES sites: there numpy's per-call overhead outweighs
# the arithmetic, so the rows a batch evaluates beyond the accepted one
# cost less than the calls the batch saves; larger arrays take one trial
# per pass
BATCH_ROWS = 3
BATCH_SITES = 256


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
    chirality ``left`` and ``right`` (each +-1): ``two_sided_bc`` on one row."""
    if n < 5:
        raise ValueError("chain needs at least 5 sites for two free layers")
    if left not in (-1, 1) or right not in (-1, 1):
        raise ValueError("chiralities must be +-1")
    return two_sided_bc(n, 1, params, (left, 1), (right, 1))


def two_sided_bc(
    nx: int,
    ny: int,
    params: ModelParams,
    left_pair: tuple[int, int],
    right_pair: tuple[int, int],
) -> BoundaryCondition:
    """Freeze the left and right border layers (two columns deep) with the
    helical angles of the given chirality pairs (w, z); the vertical
    chirality z, which must be the same on both sides, also fixes the angles
    along the frozen columns."""
    if left_pair[1] != right_pair[1]:
        # the anchor of the right columns accounts for a flip of w only: no
        # potential with gradients in {+-1}^2 meets both sides
        raise ValueError(
            f"two_sided_bc needs the same z sign on both sides, got {left_pair} and {right_pair}"
        )
    beta = params.helix_angle
    mask = np.zeros((ny, nx), dtype=bool)
    values = np.zeros((ny, nx))
    wl, wr, z = left_pair[0], right_pair[0], right_pair[1]
    # anchor the right helix so equal chiralities give one global helix and
    # opposite ones center the transition
    anchor = 0.5 * (wl + wr) * beta * (nx - 1)
    offsets = np.arange(nx)[-2:] - (nx - 1)  # of the right columns from the last
    mask[:, :2] = True
    mask[:, -2:] = True
    values[:, :2] = helix((ny, min(nx, 2)), params, left_pair)
    values[:, -2:] = beta * (wr * offsets + z * np.arange(ny)[:, None]) + anchor
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


def energy_gradient(
    psi: np.ndarray, domain: Domain, params: ModelParams, bc: Optional[BoundaryCondition]
) -> np.ndarray:
    """Analytic gradient of the renormalized energy with respect to the site
    angles; zero at frozen sites.  Single-row grids use the 1D energy."""
    u = SpinField.from_angles(psi, params.lam)
    if bc is not None and bc.mask.shape != u.angles.shape:
        raise ValueError("boundary condition shape mismatch")
    model = StencilEnergy(u.angles.shape, params, domain)
    g = model.gradient(model.evaluate(u.angles[None]))
    if bc is not None:
        g[bc.mask] = 0.0
    return g


@dataclass
class MinimizeResult:
    """Final iterate and energy, the per-iteration log, why the run stopped
    ("converged", "max_iter" or "stalled") and the line-search counts: one
    objective evaluation at the start and one per trial the search
    consumed, each trial either accepted or a backtrack; and the angle
    arrays whose energy was evaluated (``rows_evaluated``), which also
    count the trials a stacked pass evaluated beyond the one it accepted
    and the copies of the start (see ``minimize_H``)."""

    psi: np.ndarray
    report: EnergyReport
    log: list[tuple[int, float, float, float]]
    reason: str
    objective_evals: int
    accepted: int
    backtracks: int
    rows_evaluated: int

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
    A non-finite start angle raises ValueError before any energy is taken.

    The line search is Armijo's: it doubles the last step s, then halves it
    until the energy falls by at least ARMIJO * s * |g|^2.  It evaluates
    the next K trials psi - s g, psi - (s/2) g, ..., psi - (s/2^(K-1)) g as
    one stack in one ``StencilEnergy.evaluate`` and takes the first row, in
    order, that passes, so the iterates, the log and the counts are those of
    trying one step at a time.  K is BATCH_ROWS on angle arrays of at most
    BATCH_SITES sites and 1 on larger ones, and at most max_backtracks; of
    a stack that reaches past the backtrack budget only the rows within it
    are consulted.  ``objective_evals``, ``accepted`` and ``backtracks``
    count the trials consulted; ``rows_evaluated`` counts every row, the K
    copies of the start too, so ``rows_evaluated - objective_evals`` is the
    work evaluated and not used.

    The index set and the prefactor are computed once per call, and no
    spin field is built.  The gradient at an accepted point and the final
    report reuse the accepted row of its stack's state.  Two states and two
    angle stacks take turns holding the accepted point and the next trials,
    so no trial allocates them.
    """
    opts = opts if opts is not None else MinimizeOptions()
    psi = bc.apply(np.asarray(psi0, dtype=float))
    if not np.isfinite(psi).all():
        raise ValueError("spin angles must be finite")
    model = StencilEnergy(psi.shape, params, domain)
    k = min(BATCH_ROWS if psi.size <= BATCH_SITES else 1, opts.max_backtracks)
    # the first stack holds k copies of the start, so that every state has
    # k rows
    stacks = np.empty((2, k) + psi.shape)
    stacks[0] = psi
    rows = [list(stacks[0]), list(stacks[1])]
    states = [model.evaluate(stacks[0]), None]
    cur, row = 0, 0  # psi is row `row` of stack `cur`
    e = states[0].total[0]
    evals, accepted, backtracks, evaluated = 1, 0, 0, k
    step = opts.init_step
    log: list[tuple[int, float, float, float]] = []
    reason = "max_iter"
    for it in range(opts.max_iter):
        psi = rows[cur][row]
        g = model.gradient(states[cur], row)
        g[bc.mask] = 0.0
        gnorm = float(np.abs(g).max())
        log.append((it, e, gnorm, step))
        if gnorm <= STOP_GRAD_NORM:
            reason = "converged"
            break
        gsq = float(det_sum(g * g))
        step = min(step * 2.0, 1e6)  # optimistic growth, then backtrack
        nxt, found = 1 - cur, None
        for budget in range(opts.max_backtracks, 0, -k):
            s = step
            for trial in rows[nxt]:  # the steps s, s/2, ... as the search halves them
                np.subtract(psi, np.multiply(g, s, out=trial), out=trial)
                s *= BACKTRACK
            states[nxt] = model.evaluate(stacks[nxt], into=states[nxt])
            evaluated += k
            for j, total in enumerate(states[nxt].total[:budget]):
                evals += 1
                if total <= e - ARMIJO * step * gsq:
                    found, e = j, total
                    break
                backtracks += 1
                step *= BACKTRACK
            if found is not None:
                break
        else:
            reason = "stalled"
            break
        cur, row = nxt, found
        accepted += 1
    return MinimizeResult(
        psi=rows[cur][row].copy(),
        report=model.report(states[cur], row),
        log=log,
        reason=reason,
        objective_evals=evals,
        accepted=accepted,
        backtracks=backtracks,
        rows_evaluated=evaluated,
    )


def linear_init(bc: BoundaryCondition) -> np.ndarray:
    """Default initialization: per-row linear interpolation of the boundary
    lifting between the innermost frozen columns, the last of the left half
    and the first of the right half; rows without a frozen site in both
    halves, or with no free site between them, keep the boundary values."""
    ny, nx = bc.mask.shape
    psi = np.array(bc.values, dtype=float, copy=True)
    cols = np.arange(nx)
    half = nx // 2
    a = np.where(bc.mask[:, :half], cols[:half], -1).max(axis=1, initial=-1)
    b = np.where(bc.mask[:, half:], cols[half:], nx).min(axis=1, initial=nx)
    rows = np.flatnonzero((a >= 0) & (b < nx) & (b > a + 1))
    a, b = a[rows, None], b[rows, None]
    pa, pb = psi[rows[:, None], a], psi[rows[:, None], b]
    t = cols - a
    line = pa + (pb - pa) * t / (b - a)
    psi[rows] = np.where((t >= 0) & (cols <= b), line, psi[rows])
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
