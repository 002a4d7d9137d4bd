"""Oriented bond angles, the chirality order parameter transform and
discrete vorticity.

The horizontal oriented angle between adjacent spins is
theta = sign(u x v) * arccos(u . v) with the convention sign(0) = -1, so
theta lies in [-pi, pi).  The order parameters are

    w = sqrt(2/delta) * sin(theta_hor / 2),
    z = sqrt(2/delta) * sin(theta_ver / 2),

which equal +-1 exactly on the optimal helices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import ModelParams, ScalarGrid, SpinField, dump, dumps, json_int, json_number, \
    json_numbers, json_object

TWO_PI = 2.0 * math.pi

# a plaquette's vorticity may sit this far from the nearest of {-2pi, 0, 2pi}
SNAP_TOL = 1e-6


@dataclass
class ThetaFields:
    """Oriented bond angles: theta_hor[j, i] for bond (i,j)->(i+1,j),
    theta_ver[j, i] for bond (i,j)->(i,j+1).  All values in [-pi, pi)."""

    theta_hor: ScalarGrid
    theta_ver: ScalarGrid


@dataclass
class ChiralityPair:
    """Chirality grids w (horizontal) and z (vertical); |w|, |z| <= sqrt(2/delta)."""

    w: ScalarGrid
    z: ScalarGrid
    delta: float

    def _document(self) -> dict:
        # w and z have different shapes; nx/ny refer to the underlying spin grid
        return {
            "nx": self.w.nx + 1,
            "ny": self.z.ny + 1,
            "lambda": self.w.spacing,
            "delta": self.delta,
            "w": self.w.values.ravel(),
            "z": self.z.values.ravel(),
        }

    def to_json(self) -> str:
        return dumps(self._document())

    def write_json(self, path) -> None:
        """Write to_json()'s text to ``path`` as bytes, in chunks."""
        dump(self._document(), path)

    @classmethod
    def from_json(cls, text: str | bytes) -> "ChiralityPair":
        doc = json_object(text)
        nx, ny = json_int(doc, "nx"), json_int(doc, "ny")
        lam = json_number(doc, "lambda")
        w = json_numbers(doc, "w").reshape(ny, nx - 1)
        z = json_numbers(doc, "z").reshape(ny - 1, nx)
        return cls(
            w=ScalarGrid.from_values(w, lam),
            z=ScalarGrid.from_values(z, lam),
            delta=json_number(doc, "delta"),
        )


def _oriented_angle_arrays(
    ux: np.ndarray, uy: np.ndarray, vx: np.ndarray, vy: np.ndarray
) -> np.ndarray:
    """Oriented angle sign(u x v) * arccos(u . v) for arrays of unit vectors
    u = (ux, uy) and v = (vx, vy), in [-pi, pi): +pi remaps to -pi so the
    antipodal case carries sign(0) = -1."""
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    ang = np.arctan2(cross, dot)
    return np.where(ang >= math.pi, -math.pi, ang)


def _chirality_arrays(
    ux: np.ndarray, uy: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """theta_hor, theta_ver, w and z of the unit vectors (ux, uy) as plain
    arrays; ``transform`` wraps them in grids."""
    if ux.shape[0] < 2 or ux.shape[1] < 2:
        raise ValueError("transform needs a spin field of at least 2x2")
    th = _oriented_angle_arrays(ux[:, :-1], uy[:, :-1], ux[:, 1:], uy[:, 1:])
    tv = _oriented_angle_arrays(ux[:-1, :], uy[:-1, :], ux[1:, :], uy[1:, :])
    scale = math.sqrt(2.0 / delta)
    return th, tv, scale * np.sin(th / 2.0), scale * np.sin(tv / 2.0)


def transform(u: SpinField, params: ModelParams) -> tuple[ThetaFields, ChiralityPair]:
    """Order-parameter transform: spin field -> (theta fields, chirality pair).

    w has one fewer column and z one fewer row than the spin grid.
    """
    ux, uy = u.vectors()
    th, tv, w, z = _chirality_arrays(ux, uy, params.delta)
    lam = u.spacing
    theta = ThetaFields(
        theta_hor=ScalarGrid.from_values(th, lam),
        theta_ver=ScalarGrid.from_values(tv, lam),
    )
    pair = ChiralityPair(
        w=ScalarGrid.from_values(w, lam),
        z=ScalarGrid.from_values(z, lam),
        delta=params.delta,
    )
    return theta, pair


def vorticity(theta: ThetaFields) -> ScalarGrid:
    """Plaquette vorticity V[j, i] = th[j,i] + tv[j,i+1] - th[j+1,i] - tv[j,i],
    snapped to the nearest of {-2pi, 0, 2pi}.

    Raises when any plaquette value is farther than SNAP_TOL from all three:
    such theta fields were not generated from a single spin field.
    """
    th = theta.theta_hor.values
    tv = theta.theta_ver.values
    raw = th[:-1, :] + tv[:, 1:] - th[1:, :] - tv[:, :-1]
    snapped = TWO_PI * np.round(raw / TWO_PI)
    bad = (np.abs(raw - snapped) > SNAP_TOL) | (np.abs(snapped) > TWO_PI + SNAP_TOL)
    if np.any(bad):
        jj, ii = np.nonzero(bad)
        plaq = [(int(i), int(j)) for i, j in zip(ii, jj)]
        raise ValueError(f"inconsistent theta fields at plaquettes {plaq[:20]}")
    return ScalarGrid.from_values(snapped, theta.theta_hor.spacing)

