import math

import numpy as np
import pytest

from spde_lab.hilbert import (
    CovarianceSpectrum,
    DirichletBasis,
    HilbertVector,
    correlation_kernel,
)
from spde_lab.montecarlo import RandomStream, pairwise_stats
from spde_lab.wiener import TimeGrid, sample_increments_block


def test_eigenvalues_increasing_and_scaled():
    basis = DirichletBasis(2.0, 6)
    lam = basis.eigenvalues
    assert np.all(np.diff(lam) > 0)
    assert lam[0] == pytest.approx((np.pi / 2.0) ** 2)


@pytest.mark.parametrize("n_modes,length", [(4, 1.0), (16, 1.0), (12, 2.5)])
def test_orthonormality_under_quadrature(n_modes, length):
    basis = DirichletBasis(length, n_modes)
    x, w = basis.quadrature(8 * basis.n_modes)
    assert len(x) >= 8 * n_modes
    values = basis.evaluate(x)
    gram = values.T @ (w[:, np.newaxis] * values)
    assert np.abs(gram - np.eye(n_modes)).max() < 1e-10


def test_evaluate_rejects_out_of_domain():
    basis = DirichletBasis(1.0, 3)
    with pytest.raises(ValueError):
        basis.evaluate(1.5)
    with pytest.raises(ValueError):
        basis.evaluate(-0.1)


def test_trace_zero_spectrum():
    assert CovarianceSpectrum([0.0, 0.0, 0.0]).trace == 0.0


def test_trace_finite_sum():
    assert CovarianceSpectrum([1.0, 0.5, 0.25]).trace == pytest.approx(1.75)


def test_trace_partial_sum_close_to_series_limit():
    # Oracle: direct partial sum of n^-2 approaches pi^2/6 with tail < 1e-6.
    spec = CovarianceSpectrum.power(2.0, 10**6)
    assert abs(spec.trace - math.pi**2 / 6) < 1e-6
    assert spec.trace == pytest.approx(1.644933, abs=1e-6)


def test_negative_eigenvalue_rejected():
    with pytest.raises(ValueError):
        CovarianceSpectrum([1.0, -0.1])


def test_kernel_single_mode_value():
    spec = CovarianceSpectrum([1.0, 0.0, 0.0])
    basis = DirichletBasis(1.0, 3)
    # 2 sin^2(pi/2) = 2
    assert correlation_kernel(spec, basis, 0.5, 0.5) == pytest.approx(2.0)


def test_kernel_symmetry():
    spec = CovarianceSpectrum.power(2.0, 8)
    basis = DirichletBasis(1.0, 8)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.uniform(0, 1, size=2)
        assert correlation_kernel(spec, basis, x, y) == pytest.approx(
            correlation_kernel(spec, basis, y, x), rel=1e-12, abs=1e-12
        )


def test_kernel_out_of_domain():
    spec = CovarianceSpectrum([1.0])
    basis = DirichletBasis(1.0, 1)
    with pytest.raises(ValueError):
        correlation_kernel(spec, basis, 1.2, 0.5)


def test_kernel_matches_field_covariance_monte_carlo():
    # E[W_1(x) W_1(y)] = q(x, y) at t = 1; oracle is the sampled field.
    n = 8
    spec = CovarianceSpectrum.power(2.0, n)
    basis = DirichletBasis(1.0, n)
    grid = TimeGrid(1.0, 1)
    inc = sample_increments_block(spec, basis, grid, RandomStream(31), 0, 10_000)
    coeffs = np.sqrt(spec.eigenvalues) * inc[:, 0, :]
    x, y = 0.3, 0.7
    products = (coeffs @ basis.evaluate(x)) * (coeffs @ basis.evaluate(y))
    stats = pairwise_stats(products)
    closed = correlation_kernel(spec, basis, x, y)
    assert abs(stats.mean - closed) <= 3 * stats.stderr


def test_kernel_integral_matches_spectral_product():
    # Q a through the kernel integral int q(x, y) a(y) dy, projected back
    # onto the basis by quadrature, has coefficients q_n a_n.
    spec = CovarianceSpectrum([0.9, 0.4, 0.0, 0.2])
    basis = DirichletBasis(1.0, 4)
    vec = HilbertVector([1.0, -2.0, 0.5, 0.3])
    y, w = basis.quadrature(8 * basis.n_modes)
    kernel = correlation_kernel(spec, basis, y[:, np.newaxis], y[np.newaxis, :])
    qa_vals = kernel @ (w * vec.evaluate(basis, y))
    quadrature = basis.evaluate(y).T @ (w * qa_vals)
    assert np.abs(spec.eigenvalues * vec.coeffs - quadrature).max() < 1e-8


def test_parseval_for_smooth_function():
    length = 1.0
    f = lambda x: x * (length - x)
    for n_modes in (8, 16, 32):
        basis = DirichletBasis(length, n_modes)
        x, w = basis.quadrature(8 * basis.n_modes)
        vec = HilbertVector(basis.evaluate(x).T @ (w * f(x)))
        grid_norm = math.sqrt(float(w @ f(x) ** 2))
        assert abs(vec.norm() - grid_norm) < 1.0 / n_modes


def test_unit_vector_and_norm():
    vec = HilbertVector.unit(5, 2, scale=3.0)
    assert vec.norm() == pytest.approx(3.0)
    assert vec.coeffs[1] == 3.0
    with pytest.raises(ValueError):
        HilbertVector.unit(5, 6)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("finite:1,0.5", [1.0, 0.5, 0.0]),
        ("power:2", [1.0, 0.25, 1.0 / 9.0]),
        ("exp:1", [math.exp(-1), math.exp(-2), math.exp(-3)]),
    ],
)
def test_parse_spectrum(text, expected):
    spec = CovarianceSpectrum.parse(text, 3)
    np.testing.assert_allclose(spec.eigenvalues, expected, rtol=1e-15)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        CovarianceSpectrum.parse("power", 3)
    with pytest.raises(ValueError):
        CovarianceSpectrum.parse("gauss:1", 3)
    with pytest.raises(ValueError):
        CovarianceSpectrum.parse("finite:1,2,3,4", 3)
