"""Each library input check rejects its input with a ValueError naming it.

The CLI reaches few of these checks, since its flag domains reject most
such inputs first; this table calls the library directly.
"""

import numpy as np
import pytest

from spde_lab import burgers, heat, lyapunov, wave
from spde_lab.hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector, correlation_kernel
from spde_lab.montecarlo import (
    Check, block_moments, compare, map_blocks, pairwise_stats, write_series_csv,
)

SPECTRUM = CovarianceSpectrum(np.ones(2))
WAVE = wave.WaveProblem(1.0, 1.0, 1.0, SPECTRUM, np.ones(2), np.zeros(2))
BURGERS = burgers.BurgersProblem(1.0, 1.0, 1.0, burgers.AdditiveNoise(SPECTRUM), np.ones(2))

CASES = {
    "burgers-length": (lambda: burgers.BurgersProblem(1.0, 0.0, 1.0, burgers.MultiplicativeNoise(),
                                                      np.ones(2)), "domain length"),
    "burgers-init": (lambda: burgers.BurgersProblem(1.0, 1.0, 1.0, burgers.MultiplicativeNoise(),
                                                    np.ones(0)), "nonempty vector"),
    "burgers-bound-t": (lambda: burgers.energy_bound(BURGERS, [0.0, -1.0], 1.0), "nonnegative"),
    "heat-init": (lambda: heat.HeatProblem(0.5, np.ones((2, 2))), "nonempty vector"),
    "heat-mean-t": (lambda: heat.mean_closed_form(heat.HeatProblem(0.5, np.ones(2)), -1.0),
                    "nonnegative"),
    "heat-covariance-t": (
        lambda: heat.covariance_closed_form(heat.HeatProblem(0.5, np.ones(2)), 1.0, -1.0),
        "nonnegative",
    ),
    "heat-correlation-zero-variance": (
        lambda: heat.correlation_closed_form(heat.HeatProblem(0.5, np.zeros(2)), 0.1, 0.2),
        "zero variance",
    ),
    "basis-length": (lambda: DirichletBasis(0.0, 2), "domain length"),
    "basis-modes": (lambda: DirichletBasis(1.0, 0), "n_modes"),
    "vector-dimension": (lambda: HilbertVector(np.ones(2)).evaluate(DirichletBasis(1.0, 3), 0.5),
                         "dimension mismatch"),
    "spectrum-shape": (lambda: CovarianceSpectrum([]), "nonempty 1-d"),
    "kernel-dimension": (lambda: correlation_kernel(SPECTRUM, DirichletBasis(1.0, 3), 0.2, 0.4),
                         "dimension mismatch"),
    "lyapunov-init": (lambda: lyapunov.LyapunovProblem(0.0, 0.0, 1.0, np.ones(0)),
                      "nonempty vector"),
    "ensemble-variance": (lambda: pairwise_stats(np.ones(1)), "two samples"),
    "block-moments-samples": (lambda: block_moments(np.ones((0, 2))), "one sample"),
    "compare-stderr": (lambda: compare(Check("row", 0.0, 1.0, (1.0, -0.1))),
                       "invalid standard error"),
    "series-lengths": (lambda: write_series_csv("unused.csv", {"t": [0.0, 1.0], "x": [0.0]}),
                       "equal length"),
    "map-blocks-samples": (lambda: map_blocks(None, 0), "n_samples"),
    "wave-amps": (lambda: wave.WaveProblem(1.0, 1.0, 1.0, SPECTRUM, np.ones(2), np.ones(3)),
                  "equal-length"),
    "wave-spectrum": (lambda: wave.WaveProblem(1.0, 1.0, 1.0, SPECTRUM, np.ones(3), np.ones(3)),
                      "spectrum length"),
    "wave-covariance-t": (lambda: wave.covariance_closed_form(WAVE, 1.0, -1.0), "nonnegative"),
    "wave-energy-variance-t": (lambda: wave.energy_variance_closed_form(WAVE, -1.0),
                               "nonnegative"),
}


@pytest.mark.parametrize("call, match", CASES.values(), ids=CASES.keys())
def test_library_rejects_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
