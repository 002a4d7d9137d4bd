"""Loop-level reference for the descent path: backtracking gradient descent
whose objective builds a fresh spin field and calls ``energy_H`` or
``energy_H_1d`` for every trial, whose gradient recomputes cos/sin, the
stencils and the index set from the angles, and whose final report is one
more energy call.  ``minimize_H`` must reproduce it bit for bit.  Also the
energy sums as the masked arrays they are summed from, in their summation
order, for ``energy_H`` and ``energy_H_1d`` to reproduce bit for bit, and the
row loop that ``linear_init`` reproduces."""

import numpy as np

from helimag.energy import (
    EnergyReport,
    energy_H,
    energy_H_1d,
    prefactor,
    three_point,
)
from helimag.lattice import SpinField, chain_keep, det_sum, index_mask
from helimag.optimize import ARMIJO, BACKTRACK, STOP_GRAD_NORM


def squared_stencil(ux, uy, half_alpha):
    """|u[k+2] - (alpha/2) u[k+1] + u[k]|^2 along the last axis."""
    hx = three_point(ux, half_alpha)
    hy = three_point(uy, half_alpha)
    return hx * hx + hy * hy


def _interval(domain):
    return (domain.x0, domain.x0 + domain.width)


def objective(psi, domain, params, lam):
    u = SpinField.from_angles(psi, lam)
    if psi.shape[0] == 1:
        return energy_H_1d(u, _interval(domain), params)
    return energy_H(u, domain, params).total


def _add_stencil_gradient(g, cosp, sinp, mask, alpha):
    """Add the gradient of the masked squared stencils along the last axis."""
    hx = three_point(cosp, alpha / 2.0) * mask
    hy = three_point(sinp, alpha / 2.0) * mask
    g[..., :-2] += 2.0 * (-hx * sinp[..., :-2] + hy * cosp[..., :-2])
    g[..., 1:-1] += -alpha * (-hx * sinp[..., 1:-1] + hy * cosp[..., 1:-1])
    g[..., 2:] += 2.0 * (-hx * sinp[..., 2:] + hy * cosp[..., 2:])


def gradient(psi, domain, params, bc, lam):
    ny, nx = psi.shape
    cosp = np.cos(psi)
    sinp = np.sin(psi)
    g = np.zeros_like(psi)
    if ny == 1:
        keep = chain_keep(nx, _interval(domain), lam)
        _add_stencil_gradient(g, cosp, sinp, keep, params.alpha)
        g *= prefactor(params, lam, one_d=True)
    else:
        mask = index_mask(domain, lam, nx, ny)
        if nx >= 3:
            _add_stencil_gradient(g, cosp, sinp, mask[:, : nx - 2], params.alpha)
        if ny >= 3:
            _add_stencil_gradient(g.T, cosp.T, sinp.T, mask[: ny - 2, :].T, params.alpha)
        g *= prefactor(params, lam)
    if bc is not None:
        g[bc.mask] = 0.0
    return g


def minimize(psi0, domain, params, bc, opts):
    """(psi, report, log, converged, stalled) of the reference descent."""
    psi = bc.apply(np.asarray(psi0, dtype=float))
    lam = params.lam
    e = objective(psi, domain, params, lam)
    step = opts.init_step
    log = []
    converged = stalled = False
    for it in range(opts.max_iter):
        g = gradient(psi, domain, params, bc, lam)
        gnorm = float(np.abs(g).max())
        log.append((it, e, gnorm, step))
        if gnorm <= STOP_GRAD_NORM:
            converged = True
            break
        gsq = float(det_sum(g * g))
        step = min(step * 2.0, 1e6)
        accepted = False
        for _ in range(opts.max_backtracks):
            trial = psi - step * g
            e_trial = objective(trial, domain, params, lam)
            if e_trial <= e - ARMIJO * step * gsq:
                psi, e = trial, e_trial
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            stalled = True
            break
    u = SpinField.from_angles(psi, lam)
    if psi.shape[0] == 1:
        interval = _interval(domain)
        total = energy_H_1d(u, interval, params)
        terms = int(np.count_nonzero(chain_keep(psi.shape[1], interval, lam)))
        report = EnergyReport(total=total, horizontal=total, vertical=0.0, term_count=terms)
    else:
        report = energy_H(u, domain, params)
    return psi, report, log, converged, stalled


def linear_init(bc):
    """Per-row linear interpolation of the boundary lifting between the
    last frozen column of the left half and the first of the right half."""
    ny, nx = bc.mask.shape
    psi = np.array(bc.values, dtype=float, copy=True)
    for j in range(ny):
        frozen = np.nonzero(bc.mask[j])[0]
        left = frozen[frozen < nx // 2]
        right = frozen[frozen >= nx // 2]
        if len(left) == 0 or len(right) == 0:
            continue
        a, b = left.max(), right.min()
        if b > a + 1:
            t = np.arange(a, b + 1) - a
            psi[j, a : b + 1] = psi[j, a] + (psi[j, b] - psi[j, a]) * t / (b - a)
    return psi


def plane_energy(u, domain, params):
    """(horizontal, vertical, term count) of H summed as masked row-major
    arrays: the vertical stencils are those of the transpose, turned back."""
    ha = params.alpha / 2.0
    ux, uy = u.vectors()
    mask = index_mask(domain, u.spacing, u.nx, u.ny)
    pf = prefactor(params, u.spacing)
    m_hor = mask[:, : u.nx - 2]
    m_ver = mask[: u.ny - 2, :]
    hor = pf * det_sum(squared_stencil(ux, uy, ha) * m_hor)
    ver = pf * det_sum(squared_stencil(ux.T, uy.T, ha).T * m_ver)
    return hor, ver, int(np.count_nonzero(m_hor)) + int(np.count_nonzero(m_ver))


def chain_energy(u, interval, params):
    """The 1-D H summing only the kept terms of the single row."""
    ux, uy = u.vectors()
    terms = squared_stencil(ux[0], uy[0], params.alpha / 2.0)
    keep = chain_keep(u.nx, interval, u.spacing)
    return prefactor(params, u.spacing, one_d=True) * det_sum(terms[keep])
