"""Dirichlet sine basis on an interval, noise covariance spectra and the
induced spatial correlation kernel.

The basis is fixed: e_n(x) = sqrt(2/l) sin(n pi x / l) for n = 1..N on
(0, l), with Laplacian eigenvalues (n pi / l)^2.  Spatial integrals use the
composite trapezoid rule on a uniform grid of M panels, which integrates the
product of two basis modes exactly (to roundoff) when M > N; Burgers'
dealiased collocation takes M = floor(3N/2) + 1 (Orszag's 3/2 rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DirichletBasis:
    """Orthonormal sine basis of the first ``n_modes`` Dirichlet eigenfunctions."""

    length: float
    n_modes: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")

    @property
    def mode_numbers(self) -> np.ndarray:
        return np.arange(1, self.n_modes + 1)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Laplacian eigenvalues (n pi / l)^2, strictly increasing."""
        return (self.mode_numbers * np.pi / self.length) ** 2

    def evaluate(self, x) -> np.ndarray:
        """Values e_n(x); shape is x.shape + (n_modes,).

        Raises for coordinates outside [0, l].
        """
        x = np.asarray(x, dtype=float)
        if np.any(x < 0) or np.any(x > self.length):
            raise ValueError(f"coordinate outside [0, {self.length}]")
        phases = self.mode_numbers * np.pi / self.length * x[..., np.newaxis]
        return np.sqrt(2.0 / self.length) * np.sin(phases)

    def quadrature(self, panels: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform trapezoid nodes and weights of ``panels`` panels."""
        x = np.linspace(0.0, self.length, panels + 1)
        w = np.full(panels + 1, self.length / panels)
        w[0] *= 0.5
        w[-1] *= 0.5
        return x, w


@dataclass(frozen=True)
class HilbertVector:
    """Coefficient vector of a function in the truncated sine basis.

    Parseval at truncation level: ``norm()`` equals the L2 norm of the
    represented function.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return len(self.coeffs)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs**2)))

    def evaluate(self, basis: DirichletBasis, x) -> np.ndarray | float:
        """Function values sum_n coeffs_n e_n(x)."""
        if basis.n_modes != len(self):
            raise ValueError("dimension mismatch")
        return basis.evaluate(x) @ self.coeffs

    @classmethod
    def unit(cls, n_modes: int, mode: int, scale: float = 1.0) -> "HilbertVector":
        """``scale`` times the basis vector e_mode (1-based index)."""
        if not 1 <= mode <= n_modes:
            raise ValueError("mode index out of range")
        coeffs = np.zeros(n_modes)
        coeffs[mode - 1] = scale
        return cls(coeffs)


@dataclass(frozen=True)
class CovarianceSpectrum:
    """Finite eigenvalues q_n >= 0 of the noise covariance operator, basis-aligned."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        arr = np.array(self.eigenvalues, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d sequence")
        if not np.all((arr >= 0) & (arr < np.inf)):
            raise ValueError("covariance eigenvalues must be finite and nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", arr)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @property
    def trace(self) -> float:
        """Sum of the stored eigenvalues."""
        return float(np.sum(self.eigenvalues))

    @classmethod
    def power(cls, p: float, n_modes: int) -> "CovarianceSpectrum":
        q = np.arange(1, n_modes + 1, dtype=float) ** (-p)
        return cls(q)

    @classmethod
    def parse(cls, text: str, n_modes: int) -> "CovarianceSpectrum":
        """Parse a spectrum specification string.

        Formats: ``finite:q1,q2,...`` (padded with zeros up to n_modes),
        ``power:p`` for q_n = n^-p, ``exp:r`` for q_n = exp(-r n).
        """
        kind, sep, arg = text.partition(":")
        if not sep:
            raise ValueError(f"malformed spectrum {text!r}, expected kind:args")
        if kind == "finite":
            values = [float(v) for v in arg.split(",") if v != ""]
            if len(values) > n_modes:
                raise ValueError(
                    f"finite spectrum lists {len(values)} eigenvalues "
                    f"but only {n_modes} modes are kept"
                )
            padded = np.zeros(n_modes)
            padded[: len(values)] = values
            return cls(padded)
        if kind == "power":
            return cls.power(float(arg), n_modes)
        if kind == "exp":
            return cls(np.exp(-float(arg) * np.arange(1, n_modes + 1, dtype=float)))
        raise ValueError(f"unknown spectrum kind {kind!r}")


def correlation_kernel(
    spectrum: CovarianceSpectrum, basis: DirichletBasis, x, y
) -> np.ndarray | float:
    """Truncated spatial correlation sum_n q_n e_n(x) e_n(y)."""
    if len(spectrum) != basis.n_modes:
        raise ValueError("dimension mismatch")
    return np.sum(spectrum.eigenvalues * basis.evaluate(x) * basis.evaluate(y), axis=-1)

