"""Hydrogen 1S/2P wavefunctions and the momentum-space smearing function.

The coupling of the 2P -> 1S transition to the radiation field is carried by
the vector function chi_i(p), the Fourier transform of psi1_bar * d_i psi0.
For hydrogen it has the closed form

    chi_i(p) = sqrt(2) * alpha^5 * [ 4 p_i p_z / (p^2 + 9/4 alpha^2)^3
                                     - delta_{iz} / (p^2 + 9/4 alpha^2)^2 ].

Both wavefunctions are real, so chi is real and even in p.  The first
(longitudinal) term is removed later by the transverse projector inside the
kernel; it is kept here on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .units import FINE_STRUCTURE


@dataclass(frozen=True)
class ModelParams:
    """Coupling constant and transition frequency (dimensionless units)."""

    alpha: float
    omega: float

    def __post_init__(self):
        # alpha = 0 (decoupled limit) and omega = 0 are valid test settings
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0.0 <= self.omega < math.inf:
            raise ValueError("omega must be finite and nonnegative")

    @classmethod
    def hydrogen_2p1s(cls, alpha: float = FINE_STRUCTURE) -> "ModelParams":
        return cls(alpha=alpha, omega=transition_frequency(alpha))


@dataclass(frozen=True)
class SmearingFunction:
    """Momentum-space smearing function p (3-vector) -> real 3-vector.

    ``fn`` must broadcast over trailing shape (..., 3).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def __call__(self, p) -> np.ndarray:
        return self.fn(np.asarray(p, dtype=float))


def transition_frequency(alpha: float) -> float:
    """Energy of the 2P -> 1S gap, (1/2 - 1/8) alpha^2."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return 0.375 * alpha * alpha


def chi_momentum(p, alpha: float) -> np.ndarray:
    """Closed-form chi_i(p) for the hydrogen 2P -> 1S transition.

    Accepts a single 3-vector or an array of shape (..., 3); returns the
    same shape.  Includes the longitudinal term.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError("momentum must have 3 components on the last axis")
    p2 = np.sum(p * p, axis=-1)
    denom = p2 + 2.25 * alpha * alpha
    pz = p[..., 2]
    out = 4.0 * p * (pz / denom**3)[..., None]
    out[..., 2] -= 1.0 / denom**2
    return math.sqrt(2.0) * alpha**5 * out


def hydrogen_chi(alpha: float) -> SmearingFunction:
    """Smearing function object for the built-in hydrogen transition."""
    return SmearingFunction(fn=lambda p: chi_momentum(p, alpha),
                            label=f"hydrogen_2p1s(alpha={alpha:g})")


def orbital_value(which: str, x, alpha: float):
    """Value of the 1S ('ground') or 2P_z ('excited') orbital at a point.

    ``x`` is a 3-vector or array (..., 3); returns a scalar or (...) array.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x * x, axis=-1))
    if which == "ground":
        val = (alpha**1.5 / math.sqrt(math.pi)) * np.exp(-alpha * r)
    elif which == "excited":
        # r cos(theta) = z; no division by r needed
        z = x[..., 2]
        val = (alpha**2.5 / (4.0 * math.sqrt(2.0 * math.pi))) \
            * z * np.exp(-0.5 * alpha * r)
    else:
        raise ValueError("which must be 'ground' or 'excited'")
    return val if val.ndim else float(val)
