"""Bound-state tests: root function, solver, wavefunctions, band scans.

The dense-diagonalization oracle lives in test_oracle.py / the acceptance
suite; here the independent references are the static quartic, discrete
Fourier transforms, and grid normalization sums.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed_mobile import (
    BandEdgeSingularity,
    ModelParams,
    NoBoundState,
    NumericalFailure,
    ParameterError,
    SizeError,
    band_halfwidth,
    band_scan,
    bound_wavefunctions,
    flatness_report,
    gap_energy,
    momentum_grid,
    omega_tilde,
    solve_bound_state,
    z_of_K,
)

from wqed_mobile import boundstates, errors
from wqed_mobile.boundstates import _f_of_delta

from dense_reference import (bound_momentum_amplitudes, dense_block_eigenvalues,
                             pole_residual, self_energy_slope)


GENERIC = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=1.0, L=2000)


def pole_function(params: ModelParams, K: float, E: float) -> float:
    """F(E) = E - E_{K,Delta} - Sigma_K(E), defined for |E| > 2|z(K)|."""
    b = float(band_halfwidth(params, K))
    if abs(E) == b:
        raise BandEdgeSingularity(f"F(E) undefined at the band edge |E| = {b!r}")
    if abs(E) < b:
        raise ParameterError(
            f"F(E) is only defined outside the band (|E| = {abs(E)!r} < 2|z| = {b!r})"
        )
    return float(_f_of_delta(abs(E) - b, 1 if E > 0 else -1, b,
                             float(gap_energy(params, K)), params.Omega**2))


def test_pole_function_limits_and_monotonicity():
    params = GENERIC
    K = 0.4
    b = float(band_halfwidth(params, K))
    assert pole_function(params, K, -b - 1e-10) > 1e3
    assert pole_function(params, K, b + 1e-10) < -1e3
    assert pole_function(params, K, 50.0) > 0
    assert pole_function(params, K, -50.0) < 0
    es = np.linspace(b + 1e-3, b + 6.0, 200)
    fs = [pole_function(params, K, e) for e in es]
    assert np.all(np.diff(fs) > 0)


def test_pole_function_domain_errors():
    params = GENERIC
    b = float(band_halfwidth(params, 0.0))
    with pytest.raises(BandEdgeSingularity):
        pole_function(params, 0.0, b)
    with pytest.raises(ParameterError):
        pole_function(params, 0.0, 0.5 * b)


def test_static_bound_state_quartic():
    # With J' = 0, Delta = 0, Omega = J the root condition closes to
    # E^2 (E^2 - 4) = 1, i.e. E = +- sqrt(2 + sqrt(5)).
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=1.0, L=2000)
    e_ref = math.sqrt(2.0 + math.sqrt(5.0))
    plus = solve_bound_state(params, 0.0, +1)
    minus = solve_bound_state(params, 0.0, -1)
    assert plus.energy == pytest.approx(e_ref, abs=1e-12)
    assert minus.energy == pytest.approx(-e_ref, abs=1e-12)
    assert plus.u == pytest.approx(minus.u, abs=1e-12)


def test_decoupled_limit():
    params = ModelParams(J=1.0, Jp=0.2, Delta=3.0, Omega=0.0, L=400)
    bound = solve_bound_state(params, 0.0, +1)
    assert bound.energy == pytest.approx(3.0 - 0.4, abs=1e-14)
    assert bound.u == 1.0
    with pytest.raises(NoBoundState):
        solve_bound_state(params, 0.0, -1)
    # decoupled level inside the band: no bound state on either side
    params2 = ModelParams(J=1.0, Jp=0.2, Delta=0.0, Omega=0.0, L=400)
    for branch in (+1, -1):
        with pytest.raises(NoBoundState, match="Omega = 0 and the decoupled level"):
            solve_bound_state(params2, 0.3, branch)
    # Omega = 1e-200 > 0 whose square underflows to 0: a level out of band on the
    # branch is the decoupled level, as at Omega = 0; one inside the band would bind
    # at an edge offset of order Omega^4, which no double resolves, so the solve fails
    # and names the underflow rather than Omega = 0.
    tiny = ModelParams(J=1.0, Jp=0.2, Delta=3.0, Omega=1e-200, L=400)
    assert solve_bound_state(tiny, 0.0, +1) == bound
    with pytest.raises(NumericalFailure, match=r"Omega = 1e-200 > 0, but Omega\^2 underflows"):
        solve_bound_state(tiny, 0.0, -1)
    with pytest.raises(NumericalFailure, match="underflows"):
        band_scan(tiny, 16)


def test_branch_must_be_plus_or_minus_one():
    for branch in (0, 2, "plus"):
        with pytest.raises(ParameterError, match="branch must be \\+1 or -1"):
            solve_bound_state(GENERIC, 0.3, branch)


def test_weak_coupling_limit_approaches_bare_level():
    params = ModelParams(J=1.0, Jp=0.0, Delta=3.0, Omega=1e-3, L=400)
    bound = solve_bound_state(params, 0.0, +1)
    assert bound.energy == pytest.approx(3.0, abs=1e-5)
    assert bound.u == pytest.approx(1.0, abs=1e-5)


def test_random_draws_both_branches_exist():
    rng = np.random.default_rng(20)
    for _ in range(100):
        params = ModelParams(J=1.0, Jp=rng.uniform(0.0, 1.0),
                             Delta=rng.uniform(-3.0, 3.0),
                             Omega=rng.uniform(1e-6, 1.0), L=400)
        K = rng.uniform(-math.pi, math.pi)
        b = float(band_halfwidth(params, K))
        for branch in (+1, -1):
            bound = solve_bound_state(params, K, branch)
            assert branch * bound.energy > b
            assert pole_residual(params, bound) < 1e-10
            assert 0.0 < bound.u <= 1.0
            assert abs(bound.y_in) < 1.0
            assert bound.loc_length > 0.0


def test_weight_consistent_with_self_energy_derivative():
    rng = np.random.default_rng(21)
    for _ in range(40):
        params = ModelParams(J=1.0, Jp=rng.uniform(0.0, 1.0),
                             Delta=rng.uniform(-2.0, 2.0),
                             Omega=rng.uniform(0.4, 1.0), L=400)
        K = rng.uniform(-math.pi, math.pi)
        for branch in (+1, -1):
            bound = solve_bound_state(params, K, branch)
            ds = self_energy_slope(params, K, bound.energy)
            assert bound.u**-2 == pytest.approx(1.0 - ds, rel=1e-9)


def test_state_normalization_on_grid():
    # u^2 + sum_p |f_p|^2 = 1 on the discrete grid (continuum weight vs
    # L = 2000 sum agree once the state is a few sites wide).
    rng = np.random.default_rng(22)
    for _ in range(10):
        params = ModelParams(J=1.0, Jp=rng.uniform(0.0, 1.0),
                             Delta=rng.uniform(-2.0, 2.0),
                             Omega=rng.uniform(0.4, 1.0), L=2000)
        K = rng.uniform(-math.pi, math.pi)
        for branch in (+1, -1):
            bound = solve_bound_state(params, K, branch)
            f_p = bound_momentum_amplitudes(params, bound)
            norm = bound.u**2 + float(np.sum(np.abs(f_p) ** 2))
            assert abs(norm - 1.0) < 1e-10


def _dft(f_p, x, L):
    p = momentum_grid(L)
    return np.sum(np.exp(1j * p * x) * f_p) / math.sqrt(L)


def test_position_wavefunction_matches_dft():
    for branch in (+1, -1):
        bound = solve_bound_state(GENERIC, math.pi / 3, branch)
        f_p = bound_momentum_amplitudes(GENERIC, bound)
        field, _ = bound_wavefunctions(GENERIC, bound, 50)
        for i, x in enumerate(field.x):
            assert abs(field.amp[i] - _dft(f_p, x, GENERIC.L)) < 1e-8


def test_position_wavefunction_symmetries():
    bound = solve_bound_state(GENERIC, math.pi / 3, -1)
    field, _ = bound_wavefunctions(GENERIC, bound, 40)
    amp = field.amp
    x = field.x
    flipped = amp[::-1]
    assert np.abs(np.abs(amp) - np.abs(flipped)).max() < 1e-15  # |f(x)| = |f(-x)|
    # phase odd in x: f(x) f(-x) has the phase of f(0)^2
    i0 = len(x) // 2
    ratio = amp * flipped / amp[i0] ** 2
    assert np.abs(ratio.imag / np.abs(ratio)).max() < 1e-10
    assert np.all(ratio.real > 0)
    # per-site phase step is -Arg z(K) on the positive half (lower branch)
    phi = np.angle(complex(z_of_K(GENERIC, math.pi / 3)))
    steps = np.angle(amp[i0 + 1:] / amp[i0:-1])
    assert np.abs(steps + phi).max() < 1e-10


def test_position_wavefunction_real_cases():
    # Static emitter or K in {0, pi}: the motional phase vanishes.
    cases = [
        (ModelParams(J=1.0, Jp=0.0, Delta=0.3, Omega=0.8, L=1000), 1.1),
        (GENERIC, 0.0),
        (GENERIC, math.pi),
    ]
    for params, K in cases:
        bound = solve_bound_state(params, K, +1)
        field, _ = bound_wavefunctions(params, bound, 30)
        assert np.abs(field.amp.imag).max() < 1e-12
        assert np.abs(field.amp - field.amp[::-1]).max() < 1e-12


def test_photon_density_position_independent_and_consistent():
    bound = solve_bound_state(GENERIC, math.pi / 3, -1)
    f_p = bound_momentum_amplitudes(GENERIC, bound)
    _, density = bound_wavefunctions(GENERIC, bound, 50)
    L = GENERIC.L
    p = momentum_grid(L)
    # photon amplitude on the ring, relative coordinate x = 0..L-1
    f_ring = np.fft.ifft(np.fft.ifftshift(f_p)) * math.sqrt(L)
    rng = np.random.default_rng(23)
    # <a+_x0 a_x0> from the translated two-particle amplitude
    dens_at = []
    for x0 in rng.integers(0, L, size=20):
        amps = f_ring[(x0 - np.arange(L)) % L] / math.sqrt(L)  # emitter at x2
        dens_at.append(float(np.sum(np.abs(amps) ** 2)))
    dens_at = np.array(dens_at)
    spread = (dens_at.max() - dens_at.min()) / dens_at.mean()
    assert spread < 1e-10
    # closed form equals the one-sided weight sum_{x >= 1} |f(x)|^2
    one_sided = float(np.sum(np.abs(f_ring[1:L // 2]) ** 2))
    assert density == pytest.approx(one_sided, rel=1e-10)
    # and the per-site expectation value is the total cloud weight / L
    assert dens_at.mean() == pytest.approx((1.0 - bound.u**2) / L, rel=1e-9)


def test_band_scan_two_minima_at_positive_detuning():
    params = ModelParams(J=1.0, Jp=0.5, Delta=2.0, Omega=1.0, L=400)
    scan = band_scan(params, 201)
    ep = scan.e_plus
    minima = [i for i in range(1, len(ep) - 1)
              if ep[i] < ep[i - 1] and ep[i] < ep[i + 1]]
    ks = [scan.K[i] for i in minima]
    assert len(ks) >= 2
    assert all(abs(k) > 0.2 for k in ks)


def test_band_scan_asymmetric_gaps_at_zero_detuning():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=1.0, L=400)
    scan = band_scan(params, 64)
    gap_up = scan.e_plus - scan.band_max
    gap_dn = scan.band_min - scan.e_minus
    assert np.abs(gap_up - gap_dn).max() > 0.1
    assert np.all(scan.e_plus > scan.band_max)
    assert np.all(scan.e_minus < scan.band_min)


def test_flatness_fit_detects_weak_coupling_cancellation():
    # With the bare level touching the band edge at K = pi (Delta = 0,
    # J' = J/2), the Taylor c2 tends to 0 as Omega -> 0 (-0.0235 at
    # Omega = 0.3).  The +-0.5 least-squares fit does not track it there
    # (-0.0085 at Omega = 0.3, +0.45 at Omega = 0.1), so this checks the
    # fit's bound at one weak coupling, not the cancellation itself.
    fr = flatness_report(ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.3, L=400))
    assert abs(fr.c2) <= 0.1 * abs(fr.c4) * fr.half_window**2
    # ... and is nonzero away from the fine-tuned point
    fr2 = flatness_report(ModelParams(J=1.0, Jp=0.5, Delta=2.0, Omega=0.3, L=400))
    assert abs(fr2.c2) > 0.1 * abs(fr2.c4) * fr2.half_window**2


def test_taylor_c2_matches_finite_differences_and_cancels():
    # The README's closed form from implicit differentiation of the pole
    # equation, c2 = [-J' + 2 J J' Omega^2 X^{-3/2}] / (1 + Omega^2 E X^{-3/2})
    # with X = E^2 - 4|z(pi)|^2, against central differences of solved upper
    # energies about K = pi.  With the level on the band edge (Delta = 0,
    # J' = J/2) it tends to 0 as Omega -> 0, which the least-squares fit of
    # test_flatness_fit_detects_weak_coupling_cancellation cannot show.
    J, jp, h = 1.0, 0.5, 1e-4
    c2s = []
    for omega in (1.0, 0.3, 0.1, 0.03, 0.01):
        params = ModelParams(J=J, Jp=jp, Delta=0.0, Omega=omega, L=400)
        e_lo, e, e_hi = (solve_bound_state(params, math.pi + d, +1).energy
                         for d in (-h, 0.0, h))
        x = e**2 - float(band_halfwidth(params, math.pi)) ** 2
        c2 = (-jp + 2 * J * jp * omega**2 * x**-1.5) / (1 + omega**2 * e * x**-1.5)
        assert (e_hi + e_lo - 2 * e) / (2 * h * h) == pytest.approx(c2, rel=0.01)
        c2s.append(c2)
    assert np.all(np.diff(np.abs(c2s)) < 0)
    assert abs(c2s[-1]) < 1e-3


def test_oracle_equivalence_improves_with_L():
    cases = [
        (dict(J=1.0, Jp=0.5, Delta=0.0, Omega=1.0), math.pi / 3),
        (dict(J=1.0, Jp=0.8, Delta=-1.0, Omega=0.7), 2.0),
        # weak binding: finite-size error visible, convergence measurable
        (dict(J=1.0, Jp=0.3, Delta=0.0, Omega=0.15), 0.7),
    ]
    for kw, K in cases:
        errs_plus = []
        errs_minus = []
        for L in (500, 1000, 2000):
            params = ModelParams(L=L, **kw)
            ev = dense_block_eigenvalues(params, K)
            errs_minus.append(abs(solve_bound_state(params, K, -1).energy - ev[0]))
            errs_plus.append(abs(solve_bound_state(params, K, +1).energy - ev[-1]))
        assert max(errs_plus) < 1e-3 and max(errs_minus) < 1e-3
        # discretization error shrinks with L until it hits float noise
        assert errs_plus[2] <= max(errs_plus[0], 1e-12)
        assert errs_minus[2] <= max(errs_minus[0], 1e-12)


def test_weight_matches_dense_eigenvector_weight():
    # u^2 equals the excited-state weight |<K|v>|^2 of the extremal dense
    # eigenvectors, within 1e-3 across the L sequence.
    from wqed_mobile import dense_block_diagonalize

    kw, K = dict(J=1.0, Jp=0.5, Delta=0.0, Omega=1.0), math.pi / 3
    for L in (500, 1000, 2000):
        params = ModelParams(L=L, **kw)
        spec = dense_block_diagonalize(params, K)
        u2_minus = solve_bound_state(params, K, -1).u ** 2
        u2_plus = solve_bound_state(params, K, +1).u ** 2
        assert abs(u2_minus - spec.weights[0]) < 1e-3
        assert abs(u2_plus - spec.weights[-1]) < 1e-3


def _brentq_energies(params, K, side):
    """Reference energies: scipy's brentq at each k of K on the solver's bracket
    in s = log(|E| - 2|z(k)|), with the pole function written out here."""
    from scipy.optimize import brentq
    om2 = params.Omega**2
    energies = []
    for b, e_gap in zip(band_halfwidth(params, K).tolist(), gap_energy(params, K).tolist()):
        def g(s):
            d = math.exp(s)
            return side * (side * (b + d) - e_gap - side * om2 / math.sqrt(d * (d + 2.0 * b)))
        d_lo = 1e-8 * max(1.0, b)
        while g(math.log(d_lo)) >= 0.0:
            d_lo /= 256.0
        d_hi = max(params.Omega, 1e-3)
        while g(math.log(d_hi)) <= 0.0:
            d_hi *= 2.0
        s = brentq(g, math.log(d_lo), math.log(d_hi), xtol=1e-14, rtol=8.9e-16, maxiter=200)
        energies.append(side * (b + math.exp(s)))
    return np.array(energies)


@pytest.mark.parametrize("jp, omega, delta", [
    (0.1, 0.2, 0.0), (0.5, 0.5, 3.0), (1.0, 1.0, 0.0), (2.0, 3.0, 1.0),
    (0.5, 1e-6, 0.0), (1.0, 1e-7, 0.0), (0.3, 1e-3, -2.0)])
def test_band_scan_matches_the_scalar_solver(jp, omega, delta):
    # band_scan solves all K at once; each energy must be brentq's root bit
    # for bit, also where weak coupling pins it to the band edge and where
    # J' = J closes the band at K = pi.
    params = ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=omega, L=64)
    scan = band_scan(params, 401)
    np.testing.assert_array_equal(scan.e_minus, _brentq_energies(params, scan.K, -1))
    np.testing.assert_array_equal(scan.e_plus, _brentq_energies(params, scan.K, +1))


def test_band_scan_without_coupling():
    # Omega = 0: the decoupled level where it is out of band on every K,
    # NoBoundState where it is not, as for the scalar solver.
    params = ModelParams(J=1.0, Jp=0.5, Delta=5.0, Omega=0.0, L=64)
    with pytest.raises(NoBoundState):
        band_scan(params, 64)
    with pytest.raises(NoBoundState):
        band_scan(ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.0, L=64), 64)
    K = momentum_grid(64)
    np.testing.assert_array_equal([solve_bound_state(params, k, +1).energy for k in K],
                                  _brentq_energies(params, K, +1))


def test_band_scan_requires_enough_points():
    with pytest.raises(ParameterError):
        band_scan(GENERIC, 4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(jp=st.floats(0.0, 2.0), delta=st.floats(-5.0, 5.0),
       log_omega=st.floats(math.log(1e-6), math.log(3.0)),
       K=st.floats(-math.pi, math.pi), branch=st.sampled_from((+1, -1)))
def test_solver_invariants_property(jp, delta, log_omega, K, branch):
    params = ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=math.exp(log_omega), L=400)
    bound = solve_bound_state(params, K, branch)
    assert pole_residual(params, bound) <= 1e-12 * max(1.0, abs(bound.energy))
    assert bound.edge_offset > 0.0
    assert 0.0 < bound.u <= 1.0
    assert abs(bound.y_in) < 1.0
    assert math.isfinite(bound.loc_length) and bound.loc_length > 0.0


@pytest.mark.parametrize("omega", [3e-4, 1e-4, 1e-6])
def test_weak_coupling_state_resolves_the_band_edge(omega):
    # The root sits so close to the band edge that `energy` rounds onto it;
    # the pole, localization length and photon density still follow from
    # the edge offset.
    for jp, delta in ((0.5, 0.0), (0.0, 0.0)):
        params = ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=omega, L=400)
        for K in np.linspace(-math.pi, math.pi, 21):
            for branch in (+1, -1):
                bound = solve_bound_state(params, K, branch)
                field, density = bound_wavefunctions(params, bound, 3)
                assert abs(bound.y_in) < 1.0
                assert math.isfinite(bound.loc_length) and bound.loc_length > 0.0
                assert math.isfinite(density) and density > 0.0
                assert np.all(np.isfinite(field.amp))


def test_wavefunction_rejects_negative_range():
    bound = solve_bound_state(GENERIC, 0.3, +1)
    with pytest.raises(ParameterError, match="x_max"):
        bound_wavefunctions(GENERIC, bound, -3)


def test_wavefunction_over_budget_raises_before_allocating():
    bound = solve_bound_state(GENERIC, 0.3, +1)
    with pytest.raises(SizeError, match="reduce x_max"):
        bound_wavefunctions(GENERIC, bound, 10**11)


def test_wavefunction_charges_its_sites(monkeypatch):
    # x, its sign mask and three complex arrays peak at 57 bytes a site, the peak that
    # tracemalloc sees (57.05 and 57.00 bytes at 40,001 and 2,000,001 sites), and the
    # call charges the sites alone: it builds no momentum grid, so a ring of 2**40
    # sites costs nothing.
    def grid(L):
        raise AssertionError("a momentum grid was built")

    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=1.0, L=2**40)
    bound = solve_bound_state(params, 0.3, +1)
    monkeypatch.setattr(boundstates, "momentum_grid", grid)
    x_max = 20_000
    tracemalloc.start()
    try:
        bound_wavefunctions(params, bound, x_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = 57 * (2 * x_max + 1)
    assert need <= peak <= 1.05 * need
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(SizeError, match="reduce x_max$"):
        bound_wavefunctions(params, bound, x_max)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need)
    field, density = bound_wavefunctions(params, bound, x_max)
    assert np.all(np.isfinite(field.amp)) and math.isfinite(density)


def test_momentum_amplitudes_finite_on_the_band_extremum():
    # Weak coupling rounds the energy onto omega_tilde at a grid momentum on the
    # band extremum, where E - omega_tilde used to divide by zero.  The half-angle
    # amplitudes of dense_reference (the tests' reference for the field), from the
    # solver's u and edge offset, stay finite and match two independent evaluations:
    # the plain Omega u / sqrt(L) / (E - omega_tilde) where its denominator cannot
    # cancel, and everywhere the form with side + cos x = side sin^2 x / (1 - side
    # cos x) wherever side cos x < 0, x = p + arg z.
    L = 400
    p = momentum_grid(L)
    for omega in (1e-6, 1e-8):
        for jp in (0.0, 0.5):
            params = ModelParams(J=1.0, Jp=jp, Delta=0.0, Omega=omega, L=L)
            for K in np.linspace(-math.pi, math.pi, 21):
                for branch in (+1, -1):
                    bound = solve_bound_state(params, K, branch)
                    with np.errstate(all="raise"):
                        f_p = bound_momentum_amplitudes(params, bound)
                    assert np.all(np.isfinite(f_p))
                    scale = omega / math.sqrt(L) * bound.u
                    plain = bound.energy - omega_tilde(params, K, p)
                    far = np.abs(plain) >= 1e-2
                    assert np.allclose(f_p[far], scale / plain[far], rtol=1e-12, atol=0.0)
                    z = complex(z_of_K(params, K))
                    c = np.cos(p + np.angle(z))
                    with np.errstate(all="ignore"):
                        bracket = np.where(branch * c >= 0, branch + c,
                                           branch * np.sin(p + np.angle(z)) ** 2
                                           / (1.0 - branch * c))
                    ref = scale / (branch * bound.edge_offset + 2 * abs(z) * bracket)
                    assert np.allclose(f_p, ref, rtol=1e-12, atol=0.0)
