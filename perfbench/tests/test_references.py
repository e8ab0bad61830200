"""The benchmark's references against values known without holoseq.

A reference that is wrong the same way as the program would hide the fault,
so each one is pinned here by a closed form, a hand-derived identity or a
second independent computation.  Run with
``python -m pytest perfbench/tests``.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import references as refs

CP_ATOMS = ((1.0, 0.5), (1.0, -0.5))


def test_compound_poisson_exponent_at_one():
    # 1/2 + 2 (cosh(1/2) - 1)
    kappa = refs.levy_exponent(1.0, 1.0, CP_ATOMS)
    assert kappa == pytest.approx(0.7552519304127614, rel=1e-15)
    assert math.exp(kappa) == pytest.approx(math.exp(0.7552519304127614), rel=1e-15)


def test_compound_poisson_moments():
    m = refs.levy_raw_moments(0.0, 1.0, 1.0, CP_ATOMS, 4)
    # E[X_1^2] = 1 + 2 * 1/4, E[X_1^4] = 3 * 1.5^2 + 2 / 16
    assert m[2] == pytest.approx(1.5, rel=1e-15)
    assert m[3] == pytest.approx(0.0, abs=1e-15)
    assert m[4] == pytest.approx(6.875, rel=1e-15)


def test_gaussian_moments_with_start_point():
    m = refs.levy_raw_moments(0.3, 2.0, 1.0, (), 4)
    # X = 0.3 + N(0, 2): E[X^4] = x^4 + 6 x^2 v + 3 v^2
    assert m[4] == pytest.approx(0.3**4 + 6 * 0.09 * 2 + 12, rel=1e-14)


def test_gaussian_quadratic_mgf_by_quadrature():
    tau, gam, mean, var = 0.6, 0.15, 0.2, 1.0
    dens = lambda x: math.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)  # noqa: E731
    val, _ = integrate.quad(lambda x: math.exp(tau * x + gam * x * x) * dens(x), -40, 40, epsabs=1e-14)
    assert refs.gaussian_quadratic_mgf(tau, gam, mean, var) == pytest.approx(val, rel=1e-12)


def test_affine_reference_ornstein_uhlenbeck():
    # b(x) = b0 + b1 x, a = a0: X_T is Gaussian with known mean and variance
    b0, b1, a0, T, x0, tau = 0.1, -0.7, 0.3, 1.3, 0.4, 0.8
    model = refs.AffineModel([b0], [[b1]], [[a0]], [[[0.0]]], 0.0, [0.0], [])
    e = math.exp(b1 * T)
    mean = x0 * e + b0 * (e - 1) / b1
    var = a0 * (e * e - 1) / (2 * b1)
    assert model.mgf([tau], T, [x0]) == pytest.approx(math.exp(tau * mean + 0.5 * tau * tau * var), rel=1e-11)


def test_affine_reference_reduces_to_levy():
    model = refs.AffineModel([0.0], [[0.0]], [[1.0]], [[[0.0]]], 1.0, [0.0], [(w, [xi]) for w, xi in CP_ATOMS])
    assert model.mgf([1.0], 1.0, [0.0]) == pytest.approx(math.exp(0.7552519304127614), rel=1e-12)


def test_affine_reference_square_root_diffusion():
    # a(x) = sigma^2 x, b(x) = kappa (theta - x): the CIR transform in closed form
    kappa, theta, sig2, T, x0, u = 0.9, 0.5, 0.4, 0.7, 0.3, -0.6
    model = refs.AffineModel([kappa * theta], [[-kappa]], [[0.0]], [[[sig2]]], 0.0, [0.0], [])
    # psi' = -kappa psi + sig2 psi^2 / 2, phi' = kappa theta psi
    c = sig2 / 2
    psi = lambda t: kappa * u * math.exp(-kappa * t) / (kappa - c * u * (1 - math.exp(-kappa * t)))  # noqa: E731
    phi, _ = integrate.quad(lambda t: kappa * theta * psi(t), 0, T, epsabs=1e-13, epsrel=1e-13)
    assert model.mgf([u], T, [x0]) == pytest.approx(math.exp(phi + psi(T) * x0), rel=1e-11)


def test_affine_reference_decoupled_product():
    # two independent coordinates: the joint transform is the product of the marginals
    one = refs.AffineModel([0.1], [[-0.5]], [[0.2]], [[[0.0]]], 0.0, [0.0], [])
    two = refs.AffineModel([0.05], [[-0.3]], [[0.15]], [[[0.0]]], 0.0, [0.0], [])
    joint = refs.AffineModel(
        [0.1, 0.05], [[-0.5, 0.0], [0.0, -0.3]], [[0.2, 0.0], [0.0, 0.15]], np.zeros((2, 2, 2)), 0.0, [0.0, 0.0], []
    )
    want = one.mgf([0.4], 1.0, [0.2]) * two.mgf([-0.3], 1.0, [0.1])
    assert joint.mgf([0.4, -0.3], 1.0, [0.2, 0.1]) == pytest.approx(want, rel=1e-12)


def _unit_interval_generator_value(f, df, d2f, x):
    """A f(x) from the model's definition: a(x) f''/2 plus the kill-to-origin jump."""
    a = x * (1 - x) * (1 - x / 2)
    lam = (1 - x) * (1 - x / 2) / x
    return 0.5 * a * d2f(x) + lam * (f(0.0) - f(x) + x * df(x))


@pytest.mark.parametrize("k", [0, 1, 2, 5, 11])
def test_unit_interval_matrix_is_the_generator(k):
    m = refs.unit_interval_generator(20)
    for x in (0.1, 0.37, 0.8):
        f = lambda y: (y / 2) ** k  # noqa: E731
        df = lambda y: k / 2 * (y / 2) ** (k - 1) if k >= 1 else 0.0  # noqa: E731
        d2f = lambda y: k * (k - 1) / 4 * (y / 2) ** (k - 2) if k >= 2 else 0.0  # noqa: E731
        direct = _unit_interval_generator_value(f, df, d2f, x)
        via_matrix = m[k] @ (x / 2) ** np.arange(21)
        assert via_matrix == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_unit_interval_mgf_start_and_slope():
    xs = np.array([0.2, 0.5, 0.8])
    assert refs.unit_interval_mgf(0.0, xs) == pytest.approx(np.exp(xs), rel=1e-14)
    # d/dT E[e^X_T] at T = 0 is the generator applied to e^x
    h = 1e-5
    slope = (refs.unit_interval_mgf(h, xs) - refs.unit_interval_mgf(-h, xs)) / (2 * h)
    want = [_unit_interval_generator_value(math.exp, math.exp, math.exp, x) for x in xs]
    assert slope == pytest.approx(want, rel=1e-6)


def test_unit_interval_mgf_truncation_converged():
    xs = np.linspace(0.1, 0.9, 5)
    a = refs.unit_interval_mgf(0.5, xs, k_max=150)
    b = refs.unit_interval_mgf(0.5, xs, k_max=250)
    assert a == pytest.approx(b, rel=1e-13)
    # and the scale argument is e^{s x}
    assert refs.unit_interval_mgf(0.0, xs, scale=1.3) == pytest.approx(np.exp(1.3 * xs), rel=1e-13)


def test_chain_expectation_two_state_closed_form():
    l12, l21, T = 0.6, 0.9, 0.8
    h = np.array([0.3, -0.5])
    total = l12 + l21
    stat = (l21 * h[0] + l12 * h[1]) / total
    gap = (h[0] - h[1]) / total * math.exp(-total * T)
    want = [stat + l12 * gap, stat - l21 * gap]
    got = refs.chain_expectation([[0.0, l12], [l21, 0.0]], h, T)
    assert got == pytest.approx(want, rel=1e-13)


def test_chain_expectation_conserves_mass_and_matches_series():
    rates = np.array([[0.0, 0.7, 0.3, 0.0], [0.2, 0.0, 0.5, 0.3], [0.4, 0.1, 0.0, 0.5], [0.6, 0.2, 0.2, 0.0]])
    assert refs.chain_expectation(rates, np.ones(4), 1.7) == pytest.approx(np.ones(4), rel=1e-14)
    q = refs.chain_generator(rates)
    h = np.array([0.1, -0.4, 0.9, 0.2])
    series, term = h.copy(), h.copy()
    for n in range(1, 40):
        term = q @ term * (0.6 / n)
        series = series + term
    assert refs.chain_expectation(rates, h, 0.6) == pytest.approx(series, rel=1e-13)
