"""Asymmetric exponential power (AEP) distribution.

Five-parameter density with independent shape and scale on each side of a
mode ``m``::

    f(x) = (1/A) * exp( -(1/b_l) * |(x - m)/a_l|**b_l )    for x <= m
    f(x) = (1/A) * exp( -(1/b_r) * |(x - m)/a_r|**b_r )    for x >  m

with normalization constant::

    A = a_l * b_l**(1/b_l) * Gamma(1 + 1/b_l) + a_r * b_r**(1/b_r) * Gamma(1 + 1/b_r)

Shape 2 on both sides (with equal scales) recovers the Gaussian, shape 1 the
Laplace.  Shapes below 2 give fatter-than-Gaussian tails; asymmetric shapes
or scales give skewness.  Exact sampling uses the one-sided representation
|X - m| / a = (b * G)**(1/b) with G ~ Gamma(1/b, 1), picking the side with
probability proportional to its share of the normalization constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class AepParams:
    """Parameters (b_l, b_r, a_l, a_r, m): left/right shape, left/right scale, mode."""

    b_l: float
    b_r: float
    a_l: float
    a_r: float
    m: float

    def __post_init__(self):
        for name in ("b_l", "b_r", "a_l", "a_r"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not np.isfinite(self.m):
            raise ValueError(f"m must be finite, got {self.m!r}")

    @classmethod
    def gaussian(cls, a: float, m: float = 0.0) -> "AepParams":
        """Gaussian special case: both shapes 2; a is the standard deviation."""
        return cls(2.0, 2.0, a, a, m)

    @classmethod
    def laplace(cls, a: float, m: float = 0.0) -> "AepParams":
        """Laplace special case: both shapes 1; a is the mean absolute deviation."""
        return cls(1.0, 1.0, a, a, m)

    def mirrored(self) -> "AepParams":
        """Parameters of -X when X follows this distribution."""
        return AepParams(self.b_r, self.b_l, self.a_r, self.a_l, -self.m)


def _log_side_mass(a: float, b: float) -> float:
    """log of a * b**(1/b) * Gamma(1 + 1/b), one side's share of A."""
    return np.log(a) + np.log(b) / b + gammaln(1.0 + 1.0 / b)


def log_normalization(params: AepParams) -> float:
    """log A, computed in log space so extreme shapes cannot overflow."""
    return float(
        np.logaddexp(
            _log_side_mass(params.a_l, params.b_l),
            _log_side_mass(params.a_r, params.b_r),
        )
    )


def normalization(params: AepParams) -> float:
    """Normalization constant A of the density."""
    return float(np.exp(log_normalization(params)))


def left_mass(params: AepParams) -> float:
    """P(X <= m): the left side's share A_l / A of the total mass."""
    log_left = _log_side_mass(params.a_l, params.b_l)
    return float(np.exp(log_left - log_normalization(params)))


def log_density(x, params: AepParams):
    """Log of the density, evaluated elementwise.

    Parameters
    ----------
    x : array_like
        Points of evaluation.
    params : AepParams

    Returns
    -------
    float or ndarray matching the shape of ``x``.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    z = np.atleast_1d(x) - params.m
    left = z <= 0.0
    b = np.where(left, params.b_l, params.b_r)
    a = np.where(left, params.a_l, params.a_r)
    # |z/a|**b computed as exp(b*log|z/a|) in a masked way to avoid 0**b warnings
    u = np.abs(z) / a
    out = np.zeros_like(u)
    nz = u > 0.0
    out[nz] = np.exp(b[nz] * np.log(u[nz]))
    ll = -out / b - log_normalization(params)
    if scalar:
        return float(ll[0])
    return ll


def density(x, params: AepParams):
    """Density, evaluated elementwise."""
    return np.exp(log_density(x, params))


def sample(params: AepParams, size: int, rng=None):
    """Draw exact samples.

    Parameters
    ----------
    params : AepParams
    size : int
        Number of draws.
    rng : numpy Generator, SeedSequence, int, or None
        Source of randomness, as accepted by ``numpy.random.default_rng``.

    Returns
    -------
    ndarray of shape (size,)
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    go_left = rng.random(size) < left_mass(params)
    b = np.where(go_left, params.b_l, params.b_r)
    a = np.where(go_left, params.a_l, params.a_r)
    g = rng.standard_gamma(1.0 / b)
    w = a * (b * g) ** (1.0 / b)
    return params.m + np.where(go_left, -w, w)
