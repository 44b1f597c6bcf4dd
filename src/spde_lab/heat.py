"""Stochastic diffusion on (0, 1) with multiplicative scalar noise.

One scalar Brownian path drives every mode:

    u_n(t) = a_n exp(b_n t + eps w_t),   b_n = -(n pi)^2 - eps^2 / 2,

so each sample is a deterministic transform of its scalar path and the
grid values are exact in distribution.  The shared path makes same-sign
modes perfectly co-monotone across samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DirichletBasis, HilbertVector
from .montecarlo import RandomStream
from .wiener import TimeGrid, running_sums


@dataclass(frozen=True)
class HeatProblem:
    """Noise intensity and initial coefficients a_n = <f, e_n> on (0, 1)."""

    epsilon: float
    init_coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.init_coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("init_coeffs must be a nonempty vector")
        object.__setattr__(self, "init_coeffs", arr)

    @property
    def n_modes(self) -> int:
        return len(self.init_coeffs)

    @property
    def basis(self) -> DirichletBasis:
        return DirichletBasis(1.0, self.n_modes)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.basis.eigenvalues

    @property
    def drift_rates(self) -> np.ndarray:
        """b_n = -lambda_n - eps^2/2 (Ito drift of the modal exponent)."""
        return -self.eigenvalues - 0.5 * self.epsilon**2


def simulate_block(
    prob: HeatProblem, grid: TimeGrid, stream: RandomStream, start: int, stop: int, keep=None
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar paths and coefficients of samples [start, stop), exact in
    distribution at the grid points.

    Sample i draws from ``stream.child(i)``, so results are independent of
    how the index range is sharded across workers.  Without ``keep``,
    returns the paths w [batch, steps+1] and the coefficients u
    [batch, steps+1, N].  With grid indices ``keep``, returns ``u[:, keep]``,
    formed at those rows only, and an empty [batch, 0] array, in the call
    shape of ``wave.simulate_block``.
    """
    rows = slice(None) if keep is None else grid.indices(keep)
    draws = stream.block_chunks(start, stop, (grid.steps,))
    increments = (np.multiply(z, np.sqrt(grid.dt), out=z) for z in draws)
    w = np.concatenate([sums for _, sums in running_sums(increments)]).T
    exponent = (
        prob.drift_rates * grid.times[rows, np.newaxis] + prob.epsilon * w[:, rows, np.newaxis]
    )
    u = prob.init_coeffs * np.exp(exponent)
    return (w, u) if keep is None else (u, np.empty((stop - start, 0)))


def mean_closed_form(prob: HeatProblem, t: float) -> HilbertVector:
    """Mean coefficients a_n exp(-lambda_n t); independent of epsilon."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return HilbertVector(prob.init_coeffs * np.exp(-prob.eigenvalues * t))


def variance_closed_form(prob: HeatProblem, t: float) -> float:
    """L2 variance: the covariance at tau = t, which reduces to
    sum_n a_n^2 exp(-2 lambda_n t) [exp(eps^2 t) - 1]."""
    return covariance_closed_form(prob, t, t)


def covariance_closed_form(prob: HeatProblem, t: float, tau: float) -> float:
    """L2 covariance sum_n a_n^2 exp(-lambda_n (t+tau)) [exp(eps^2 min(t,tau)) - 1]."""
    if t < 0 or tau < 0:
        raise ValueError("times must be nonnegative")
    return float(
        np.sum(
            prob.init_coeffs**2
            * np.exp(-prob.eigenvalues * (t + tau))
            * np.expm1(prob.epsilon**2 * min(t, tau))
        )
    )


def correlation_closed_form(prob: HeatProblem, t: float, tau: float) -> float:
    """Correlation of the solution at two times.

    The denominator degenerates when epsilon = 0 or either time is zero,
    which is reported as an error rather than a silent 0 or 1.
    """
    if t <= 0 or tau <= 0:
        raise ValueError("correlation requires strictly positive times")
    if prob.epsilon == 0:
        raise ValueError("correlation is undefined for epsilon = 0 (zero variance)")
    if t == tau:
        return 1.0
    var_t = variance_closed_form(prob, t)
    var_tau = variance_closed_form(prob, tau)
    if var_t == 0 or var_tau == 0:
        raise ValueError("correlation is undefined: zero variance")
    return covariance_closed_form(prob, t, tau) / np.sqrt(var_t * var_tau)
