"""Spectral simulation and Monte Carlo verification lab for linear and
nonlinear stochastic PDEs on an interval.

Subpackages cover the Dirichlet sine basis and covariance spectra
(:mod:`~spde_lab.hilbert`), truncated Q-Wiener paths (:mod:`~spde_lab.wiener`),
exact solutions of the stochastic wave and heat equations
(:mod:`~spde_lab.wave`, :mod:`~spde_lab.heat`), Lyapunov exponents
(:mod:`~spde_lab.lyapunov`), a stochastic Burgers solver with energy bounds
(:mod:`~spde_lab.burgers`), and shared Monte Carlo machinery
(:mod:`~spde_lab.montecarlo`).  The ``spde-lab`` command line binds them
into reproducible experiments.

The names below are imported from their modules on first access (PEP 562),
so ``import spde_lab`` loads no numpy: ``python -m spde_lab.cli`` runs it
before ``cli`` can choose how numpy's BLAS starts.
"""

import importlib

# Each re-exported name and the module that defines it.
_EXPORTS = {
    "CovarianceSpectrum": "hilbert",
    "DirichletBasis": "hilbert",
    "HilbertVector": "hilbert",
    "EnsembleStats": "montecarlo",
    "RandomStream": "montecarlo",
    "TimeGrid": "wiener",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
