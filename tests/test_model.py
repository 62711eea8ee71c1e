"""Model-layer tests: dispersions, band geometry, and the self-energy.

Derived expectations are computed by independent oracles (finite
differences, brute-force grid scans, trapezoidal quadrature) rather than by
the code paths under test.
"""

import cmath
import math

import numpy as np
import pytest

from wqed_mobile import (
    BandEdgeSingularity,
    ModelParams,
    ParameterError,
    band_halfwidth,
    gap_energy,
    momentum_grid,
    omega_photon,
    omega_tilde,
    self_energy,
    solve_bound_state,
    v_emitter,
    v_photon,
    wrap,
    xi_emitter,
    z_of_K,
)
from wqed_mobile.model import grid_add_index, grid_sub_index

from dense_reference import self_energy_slope


def test_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(J=0.0)
    with pytest.raises(ParameterError):
        ModelParams(J=-1.0)
    with pytest.raises(ParameterError):
        ModelParams(Jp=-0.1)
    with pytest.raises(ParameterError):
        ModelParams(Omega=-0.5)
    with pytest.raises(ParameterError):
        ModelParams(L=401)
    with pytest.raises(ParameterError):
        ModelParams(L=2)


@pytest.mark.parametrize("field", ["J", "Jp", "Delta", "Omega"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        ModelParams(**{field: value})


def test_wrap_invariants():
    rng = np.random.default_rng(0)
    v = rng.uniform(-40.0, 40.0, size=500)
    assert np.allclose(wrap(v + 2.0 * math.pi), wrap(v), atol=1e-12)
    w = wrap(v)
    assert np.all((w > -math.pi) & (w <= math.pi))
    assert wrap(math.pi) == math.pi
    assert wrap(-math.pi) == math.pi


def _mod_wrap(p):
    # wrap() as np.mod wrote it before its fmod-free path
    w = np.mod(p, 2.0 * math.pi)
    return np.where(w > math.pi, w - 2.0 * math.pi, w)


def test_wrap_keeps_the_bits_of_np_mod():
    # Every bit, the sign of zero included, on random doubles within and past 4 pi,
    # random bit patterns (NaN, inf and subnormals among them), and the edges: +-0,
    # +-pi, +-2 pi, +-4 pi with their neighbours, subnormals, whose x / 2 pi can
    # underflow to -0, and +-1e300.
    rng = np.random.default_rng(7)
    tpi = 2.0 * math.pi
    edges = np.array([0.0, math.pi, tpi, 2.0 * tpi, 5e-324, 1e-323, 1.5e-323, 2e-323,
                      2.5e-323, 2.2250738585072014e-308, 1e-300, 1e300, math.inf])
    edges = np.concatenate([edges, -edges])
    edges = np.concatenate([edges, np.nextafter(edges, math.inf),
                            np.nextafter(edges, -math.inf), [math.nan]])
    subnormals = rng.integers(-2**52, 2**52, 10**4).view(np.float64)
    patterns = rng.integers(-2**63, 2**63 - 1, 10**5, dtype=np.int64).view(np.float64)
    within = rng.uniform(-2.0 * tpi, 2.0 * tpi, 10**5)
    beyond = rng.uniform(-10.0 * tpi, 10.0 * tpi, 10**5)
    near = (np.arange(-4, 5)[:, None] * math.pi
            + np.arange(-500, 500) * np.spacing(4.0 * math.pi)).ravel()
    with np.errstate(invalid="ignore"):  # np.mod of inf
        for x in (edges, subnormals, patterns, within, beyond, near):
            assert np.array_equal(wrap(x).view(np.int64), _mod_wrap(x).view(np.int64))
        for v in edges:
            assert np.float64(wrap(float(v))).view(np.int64) == _mod_wrap(v).view(np.int64)
    assert wrap(np.array([])).shape == (0,)
    assert wrap(np.zeros((2, 3))).shape == (2, 3)


def test_grid_closed_under_index_arithmetic():
    L = 12
    p = momentum_grid(L)
    for i in range(L):
        for j in range(L):
            diff = wrap(p[i] - p[j])
            assert abs(wrap(diff - p[grid_sub_index(i, j, L)])) < 1e-12
            s = wrap(p[i] + p[j])
            assert abs(wrap(s - p[grid_add_index(i, j, L)])) < 1e-12


def test_band_bottom_point():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=8)
    assert omega_photon(params, 0.0) == -2.0
    assert xi_emitter(params, 0.0) == -1.0  # emitter momentum k = K - p = 0
    assert omega_tilde(params, 0.0, 0.0) == -3.0
    assert v_photon(params, 0.0) == 0.0
    assert gap_energy(params, 0.0) == -1.0  # effective emitter level at K = 0, Delta = 0


def test_group_velocities_against_finite_differences():
    params = ModelParams(J=1.0, Jp=0.3, Delta=0.0, Omega=0.0, L=8)
    assert abs(v_emitter(params, math.pi / 3) - 2 * 0.3 * math.sin(math.pi / 3)) < 1e-14
    rng = np.random.default_rng(1)
    h = 1e-6
    for q in rng.uniform(-math.pi, math.pi, size=20):
        fd_ph = (omega_photon(params, q + h) - omega_photon(params, q - h)) / (2 * h)
        fd_qb = (xi_emitter(params, q + h) - xi_emitter(params, q - h)) / (2 * h)
        assert abs(fd_ph - v_photon(params, q)) < 1e-8
        assert abs(fd_qb - v_emitter(params, q)) < 1e-8


def test_z_special_points_and_modulus():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.0, L=8)
    assert complex(z_of_K(params, 0.0)) == pytest.approx(1.5)
    assert complex(z_of_K(params, math.pi)) == pytest.approx(0.5, abs=1e-14)
    params2 = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.0, L=8)
    K = 5 * math.pi / 6
    direct = abs(complex(z_of_K(params2, K))) ** 2
    identity = 1.0 + 0.01 + 2 * 0.1 * math.cos(K)
    assert abs(direct - identity) < 1e-14
    assert abs(direct - 0.8368) < 1e-4
    rng = np.random.default_rng(2)
    for K in rng.uniform(-math.pi, math.pi, size=50):
        az = abs(complex(z_of_K(params, K)))
        assert abs(params.J - params.Jp) - 1e-12 <= az <= params.J + params.Jp + 1e-12


def band_extrema(params: ModelParams, K: float) -> tuple[float, float, float, float]:
    """Extrema (E_min, E_max, p_min, p_max) of the effective band at fixed K:
    omega_tilde(K, p) = -2|z(K)| cos(p + arg z(K)), so the minimum -2|z| sits
    at p = -arg z and the maximum +2|z| at p = pi - arg z."""
    z = complex(z_of_K(params, K))
    phi = cmath.phase(z)
    b = 2.0 * abs(z)
    return -b, b, wrap(-phi), wrap(math.pi - phi)


def test_band_extrema_trivial_and_locations():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.0, L=8)
    e_min, e_max, p_min, p_max = band_extrema(params, 0.0)
    assert e_max == pytest.approx(3.0, abs=1e-14)
    assert e_min == pytest.approx(-3.0, abs=1e-14)
    assert p_min == pytest.approx(0.0, abs=1e-14)
    assert abs(p_max) == pytest.approx(math.pi, abs=1e-14)


def test_band_extrema_against_grid_scan():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.0, L=8)
    rng = np.random.default_rng(3)
    p_dense = np.linspace(-math.pi, math.pi, 100_001)
    for K in rng.uniform(-math.pi, math.pi, size=5):
        band = omega_tilde(params, K, p_dense)
        e_min, e_max, p_min, p_max = band_extrema(params, K)
        assert abs(band.min() - e_min) < 1e-6
        assert abs(band.max() - e_max) < 1e-6
        assert abs(omega_tilde(params, K, p_min) - e_min) < 1e-12
        assert abs(omega_tilde(params, K, p_max) - e_max) < 1e-12


def test_band_extrema_small_jp_expansion():
    # Second-order expansion -(2J + 2J' cos K + J'^2/J sin^2 K) vs exact -2|z|.
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.0, L=8)
    K = math.pi / 2
    exact = band_extrema(params, K)[0]
    expansion = -(2.0 + 2 * 0.5 * math.cos(K) + 0.25 * math.sin(K) ** 2)
    assert exact == pytest.approx(-2.0 * math.sqrt(1.25), abs=1e-14)
    assert expansion == pytest.approx(-2.25, abs=1e-14)
    assert abs(exact - expansion) < params.Jp**3  # O(J'^3) agreement


def _sigma_quadrature(params, K, E, n=100_000):
    # Uniform-grid (periodic trapezoid) quadrature of the defining integral.
    p = -math.pi + 2 * math.pi * np.arange(n) / n
    return params.Omega**2 * float(np.mean(1.0 / (E - omega_tilde(params, K, p))))


def test_self_energy_static_value():
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=1.0, L=8)
    sigma = self_energy(params, 0.0, 3.0)
    assert sigma.real == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)
    assert sigma.imag == 0.0
    assert abs(sigma.real - _sigma_quadrature(params, 0.0, 3.0)) < 1e-8


def test_self_energy_asymptotic_decay():
    params = ModelParams(J=1.0, Jp=0.4, Delta=0.0, Omega=1.0, L=8)
    assert 0.0 < self_energy(params, 1.0, 1e8).real < 2e-8


def test_self_energy_matches_quadrature_outside_band():
    params = ModelParams(J=1.0, Jp=0.35, Delta=0.0, Omega=0.8, L=8)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        K = rng.uniform(-math.pi, math.pi)
        b = float(band_halfwidth(params, K))
        E = rng.choice([-1.0, 1.0]) * (b + rng.uniform(0.05, 5.0))
        sigma = self_energy(params, K, E)
        assert abs(sigma.real - _sigma_quadrature(params, K, E)) < 1e-6
        assert math.copysign(1.0, sigma.real) == math.copysign(1.0, E)


def test_self_energy_derivative_matches_finite_difference():
    params = ModelParams(J=1.0, Jp=0.25, Delta=0.0, Omega=0.7, L=8)
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(200):
        K = rng.uniform(-math.pi, math.pi)
        b = float(band_halfwidth(params, K))
        E = rng.choice([-1.0, 1.0]) * (b + rng.uniform(0.1, 4.0))
        fd = (self_energy(params, K, E + h).real - self_energy(params, K, E - h).real) / (2 * h)
        assert abs(self_energy_slope(params, K, E) - fd) < 1e-6 * abs(fd)


def test_self_energy_inside_band_retarded():
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=8)
    K = math.pi / 3
    b = float(band_halfwidth(params, K))
    for E in (-0.9 * b, 0.0, 0.4 * b):
        sigma = self_energy(params, K, E)
        assert sigma.real == 0.0  # principal value vanishes for a cosine band
        assert sigma.imag == pytest.approx(
            -params.Omega**2 / math.sqrt(b * b - E * E), rel=1e-12)


def test_self_energy_band_edge_raises():
    params = ModelParams(J=1.0, Jp=0.3, Delta=0.0, Omega=0.5, L=8)
    K = 0.7
    b = float(band_halfwidth(params, K))
    with pytest.raises(BandEdgeSingularity):
        self_energy(params, K, b)
    with pytest.raises(BandEdgeSingularity):
        self_energy(params, K, -b)


def test_self_energy_shape_near_band_edges():
    # Real part diverges approaching the edges from outside; imaginary part
    # is nonzero only inside the band.
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=1.0, L=8)
    K = math.pi / 3
    b = float(band_halfwidth(params, K))
    assert self_energy(params, K, b + 1e-6).real > 100.0
    assert self_energy(params, K, -b - 1e-6).real < -100.0
    assert self_energy(params, K, b + 1.0).imag == 0.0
    assert self_energy(params, K, 0.5 * b).imag < 0.0


def test_on_shell_pole_identity():
    # sqrt(4|z(K)|^2 - omega_tilde^2) == 2 |J sin p - J' sin k| on shell.
    params = ModelParams(J=1.0, Jp=0.45, Delta=0.0, Omega=0.0, L=8)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        k = rng.uniform(-math.pi, math.pi)
        p = rng.uniform(-math.pi, math.pi)
        K = k + p
        b = float(band_halfwidth(params, K))
        e = float(omega_tilde(params, K, p))
        lhs = math.sqrt(max(b * b - e * e, 0.0))
        rhs = 2.0 * abs(params.J * math.sin(p) - params.Jp * math.sin(k))
        assert abs(lhs - rhs) < 1e-12


def test_pole_classification_and_product():
    # A bound state's y_in is a pole of the y = e^{ip} integrand, E - omega_tilde =
    # (z y^2 + E y + z*) / y, and the one inside the unit circle.
    params = ModelParams(J=1.0, Jp=0.6, Delta=0.0, Omega=0.9, L=8)
    rng = np.random.default_rng(7)
    for _ in range(200):
        K = rng.uniform(-math.pi, math.pi)
        z = complex(z_of_K(params, K))
        for branch in (+1, -1):
            bound = solve_bound_state(params, K, branch)
            y, E = bound.y_in, bound.energy
            assert abs(z * y * y + E * y + z.conjugate()) <= 1e-12 * abs(E)
            assert abs(y) < 1.0


def test_static_limit_reduces_to_fixed_emitter():
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.7, Omega=0.3, L=8)
    rng = np.random.default_rng(8)
    for K in rng.uniform(-math.pi, math.pi, size=20):
        assert float(band_halfwidth(params, K)) == pytest.approx(2.0, abs=1e-15)
        assert float(gap_energy(params, K)) == pytest.approx(0.7, abs=1e-15)
        p = rng.uniform(-math.pi, math.pi)
        assert float(omega_tilde(params, K, p)) == pytest.approx(
            float(omega_photon(params, p)), abs=1e-15)
