"""Design-space parametrization.

A controller setting is a seven-component vector (kappa, mu_d, n_pred, n_contr,
rho_f, rho_constr, max_iter).  Instead of searching that space directly, each
random trial draws a vector of integer shaping exponents; a single scalar dial
alpha in [0, 1] then sweeps a monotone curve through the box of admissible
settings, from the cheapest corner at alpha = 0 to the most expensive corner at
alpha = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: order of the design components inside a shaping vector
COMPONENTS = ("kappa", "mu_d", "n_pred", "n_contr", "rho_f", "rho_constr", "max_iter")

N_COMPONENTS = len(COMPONENTS)


def shape_value(exponent: int, alpha: float) -> float:
    """Map the dial alpha through one shaping exponent.

    Positive exponents give alpha**exponent (slow takeoff, late growth),
    negative exponents give alpha**(1/|exponent|) (fast takeoff, early
    saturation).  Both families are strictly increasing on (0, 1) and pin
    the endpoints: 0 -> 0 and 1 -> 1.
    """
    if exponent == 0 or exponent != int(exponent):
        raise ValueError(f"shaping exponent must be a nonzero integer, got {exponent!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    if exponent > 0:
        return float(alpha) ** exponent
    return float(alpha) ** (1.0 / abs(exponent))


@dataclass(frozen=True)
class ShapingVector:
    """Seven shaping exponents, one per design component."""

    exponents: tuple[int, ...]
    max_power: int = 3

    def __post_init__(self) -> None:
        if self.max_power < 1:
            raise ValueError("max_power must be >= 1")
        exps = tuple(int(e) for e in self.exponents)
        if len(exps) != N_COMPONENTS:
            raise ValueError(f"expected {N_COMPONENTS} exponents, got {len(exps)}")
        for e in exps:
            if e == 0 or abs(e) > self.max_power:
                raise ValueError(f"exponent {e} outside {{-{self.max_power}..-1, 1..{self.max_power}}}")
        object.__setattr__(self, "exponents", exps)


def sample_shaping(rng: np.random.Generator, max_power: int = 3) -> ShapingVector:
    """Draw each exponent uniformly from {-max_power..-1, 1..max_power}."""
    raw = rng.integers(0, 2 * max_power, size=N_COMPONENTS)
    exps = tuple(int(v - max_power) if v < max_power else int(v - max_power + 1) for v in raw)
    return ShapingVector(exps, max_power=max_power)


@dataclass(frozen=True)
class DesignBounds:
    """Box of admissible settings.  Integer components use inclusive integer bounds.

    rho_log_space switches the two penalty weights from affine to log-space
    interpolation between their bounds.
    """

    kappa: tuple[int, int] = (1, 10)
    mu_d: tuple[float, float] = (0.0, 1.0)
    n_pred: tuple[int, int] = (5, 25)
    n_contr: tuple[int, int] = (1, 5)
    rho_f: tuple[float, float] = (1.0, 1.0e3)
    rho_constr: tuple[float, float] = (1.0e3, 1.0e7)
    max_iter: tuple[int, int] = (5, 20)
    rho_log_space: bool = False

    def __post_init__(self) -> None:
        for name in ("kappa", "n_pred", "n_contr", "max_iter"):
            lo, hi = getattr(self, name)
            if lo != int(lo) or hi != int(hi):
                raise ValueError(f"{name} bounds must be integers, got {(lo, hi)}")
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} bounds must satisfy 1 <= lo <= hi, got {(lo, hi)}")
            object.__setattr__(self, name, (int(lo), int(hi)))
        lo, hi = self.mu_d
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"mu_d bounds must satisfy 0 <= lo <= hi <= 1, got {(lo, hi)}")
        object.__setattr__(self, "mu_d", (float(lo), float(hi)))
        for name in ("rho_f", "rho_constr"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} bounds must satisfy lo <= hi, got {(lo, hi)}")
            if self.rho_log_space and lo <= 0.0:
                raise ValueError(f"log-space interpolation needs positive {name} bounds")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if self.n_contr[0] > self.n_pred[1]:
            raise ValueError("n_contr lower bound exceeds n_pred upper bound")


@dataclass(frozen=True)
class DesignVector:
    """One realized controller setting."""

    kappa: int
    mu_d: float
    n_pred: int
    n_contr: int
    rho_f: float
    rho_constr: float
    max_iter: int

    def __post_init__(self) -> None:
        if self.kappa < 1 or self.n_pred < 1 or self.max_iter < 1:
            raise ValueError("kappa, n_pred and max_iter must be >= 1")
        if not 1 <= self.n_contr <= self.n_pred:
            raise ValueError(f"n_contr must lie in [1, n_pred], got {self.n_contr}")
        if not 0.0 <= self.mu_d <= 1.0:
            raise ValueError(f"mu_d must lie in [0, 1], got {self.mu_d}")

    def tau_u(self, tau: float) -> float:
        """Updating period for a plant sampled at tau."""
        return self.kappa * tau

    def horizon(self, tau: float) -> float:
        """Prediction-horizon length in seconds."""
        return self.n_pred * self.kappa * tau

    def as_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "mu_d": self.mu_d,
            "n_pred": self.n_pred,
            "n_contr": self.n_contr,
            "rho_f": self.rho_f,
            "rho_constr": self.rho_constr,
            "max_iter": self.max_iter,
        }


def _round_int(raw: float, lo: int, hi: int) -> int:
    # round half up, then clamp into the inclusive integer box
    return int(min(max(math.floor(raw + 0.5), lo), hi))


def _interp_weight(bounds: tuple[float, float], phi: float, log_space: bool) -> float:
    lo, hi = bounds
    if log_space:
        return float(math.exp(math.log(lo) + phi * (math.log(hi) - math.log(lo))))
    return float(lo + phi * (hi - lo))


def realize(shaping: ShapingVector, alpha: float, bounds: DesignBounds) -> DesignVector:
    """Realize the setting selected by (shaping, alpha) inside the bounds box.

    All components grow with alpha except kappa, which shrinks: alpha = 0 is
    the minimum-compute corner (largest updating period, everything else at
    its lower bound) and alpha = 1 the maximum-compute corner.
    """
    phi = [shape_value(e, alpha) for e in shaping.exponents]

    kappa = _round_int(bounds.kappa[1] - phi[0] * (bounds.kappa[1] - bounds.kappa[0]), *bounds.kappa)
    mu_lo, mu_hi = bounds.mu_d
    mu_d = float(min(max(mu_lo + phi[1] * (mu_hi - mu_lo), mu_lo), mu_hi))
    n_pred = _round_int(bounds.n_pred[0] + phi[2] * (bounds.n_pred[1] - bounds.n_pred[0]), *bounds.n_pred)
    n_contr = _round_int(bounds.n_contr[0] + phi[3] * (bounds.n_contr[1] - bounds.n_contr[0]), *bounds.n_contr)
    rho_f = _interp_weight(bounds.rho_f, phi[4], bounds.rho_log_space)
    rho_constr = _interp_weight(bounds.rho_constr, phi[5], bounds.rho_log_space)
    max_iter = _round_int(bounds.max_iter[0] + phi[6] * (bounds.max_iter[1] - bounds.max_iter[0]), *bounds.max_iter)

    n_contr = min(n_contr, n_pred)  # keep the free-input block count inside the horizon
    return DesignVector(kappa, mu_d, n_pred, n_contr, rho_f, rho_constr, max_iter)
