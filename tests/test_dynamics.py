"""Dynamics tests: block evolution, emission analysis, windows, observables."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wqed_mobile import (
    BandEdgeSingularity,
    ModelParams,
    NotEmbedded,
    ParameterError,
    SizeError,
    asymptotic_momenta,
    classify_regime_and_windows,
    evolve_fixed_K,
    evolve_localized,
    fit_exponential_rate,
    gap_energy,
    markov_rate,
    momentum_grid,
    omega_tilde,
    photon_spectrum_and_directionality,
    position_observables,
    self_energy,
    solve_bound_state,
    spectrum_peaks,
)
from wqed_mobile import dynamics
from wqed_mobile.dynamics import _chunk_modes, block_hamiltonian
from wqed_mobile.oracle import dense_block_diagonalize

from dense_reference import (PEAK_KIB, avx512_groups, blocks, exact_phases,
                             position_reference, refined_dense_weights, run_python,
                             wavefront_position)

FIG_EMISSION = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=400)


def test_block_hamiltonian_structure():
    params = ModelParams(J=1.0, Jp=0.4, Delta=0.7, Omega=0.3, L=16)
    K = 0.9
    h = block_hamiltonian(params, K)
    assert h.shape == (17, 17)
    assert np.array_equal(h, h.T)
    assert h[0, 0] == pytest.approx(float(gap_energy(params, K)), abs=1e-15)
    p = momentum_grid(16)
    assert np.allclose(np.diag(h)[1:], omega_tilde(params, K, p), atol=1e-15)
    assert np.allclose(h[0, 1:], 0.3 / 4.0, atol=1e-15)
    # photon modes couple only through the emitter: momentum conservation
    off = h[1:, 1:].copy()
    np.fill_diagonal(off, 0.0)
    assert np.all(off == 0.0)


def test_decoupled_block_is_pure_phase():
    params = ModelParams(J=1.0, Jp=0.5, Delta=1.0, Omega=0.0, L=64)
    times = np.array([0.0, 3.7, 9.1])
    traj = evolve_fixed_K(params, 0.3, times)
    e_gap = float(gap_energy(params, 0.3))
    expected = np.exp(-1j * e_gap * times)
    assert np.abs(traj.psi_e - expected).max() < 1e-12
    assert np.abs(traj.phi).max() == 0.0
    with pytest.raises(ParameterError):
        photon_spectrum_and_directionality(traj, 4.0)


def test_norm_conservation():
    params = ModelParams(J=1.0, Jp=0.33, Delta=-0.4, Omega=0.8, L=256)
    traj = evolve_fixed_K(params, 1.3, np.linspace(0.0, 150.0, 16))
    assert np.abs(traj.norms() - 1.0).max() < 1e-9


def test_times_validation_and_size_budget():
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.1, L=64)
    with pytest.raises(ParameterError):
        evolve_fixed_K(params, 0.0, [1.0, 0.5])
    with pytest.raises(ParameterError):
        evolve_fixed_K(params, 0.0, [-1.0, 0.5])
    for times in ([], np.zeros((2, 2))):
        with pytest.raises(ParameterError, match="times must be a non-empty 1-D array"):
            evolve_fixed_K(params, 0.0, times)
    # Over the budget in the secular solve's ~900 doubles a root alone; raised
    # before any allocation.
    with pytest.raises(SizeError):
        evolve_fixed_K(ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.1, L=300_000),
                       0.0, [1.0])
    # A fixed-K run at L = 150,000 needs ~1.5 GiB and fits the budget (checked
    # without allocating it): no term grows like L^2.
    dynamics._check_block_budget(150_000, 1, 2, 2)
    # psi_e's work does not grow with the sample count: a localized run at
    # L = 400 with 20001 samples needs ~0.2 GiB, nearly all of it the output.
    dynamics._check_block_budget(400, 400, 20_001, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_rejected(bad):
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=16)
    with pytest.raises(ParameterError, match=f"t = {bad!r}"):
        evolve_fixed_K(params, 0.7, [0.0, bad, 2.0])
    with pytest.raises(ParameterError, match=f"t = {bad!r}"):
        evolve_localized(params, 0, [0.0, bad])
    traj = evolve_fixed_K(params, 0.7, [0.0, 2.0])
    with pytest.raises(ParameterError, match=f"t = {bad!r} is not one of the sampled"):
        photon_spectrum_and_directionality(traj, bad)
    with pytest.raises(ParameterError, match=f"t = {bad!r} is not one of the sampled"):
        evolve_localized(params, 0, [0.0, 2.0], snapshots=[bad])


def test_asymptotic_momenta_k0():
    pm = asymptotic_momenta(FIG_EMISSION, 0.0)
    ref = math.acos(1.0 / 3.0)  # -3 cos p = -1
    assert sorted(pm) == pytest.approx([-ref, ref], abs=1e-9)
    for p in pm:
        assert abs(float(omega_tilde(FIG_EMISSION, 0.0, p))
                   - float(gap_energy(FIG_EMISSION, 0.0))) < 1e-12


def test_asymptotic_momenta_kpi3_labels():
    pm = asymptotic_momenta(FIG_EMISSION, math.pi / 3)
    assert pm[0] == pytest.approx(-1.05, abs=1e-2)
    assert pm[1] == pytest.approx(1.71, abs=1e-2)


@pytest.mark.parametrize("jp, delta, K", [
    (0.0, 0.0, 0.0),               # E = 0
    (0.5, -1.0, math.pi / 2),      # E^2 = 4 J'^2 sin^2 K
    (0.5, -1.0, -math.pi / 2),
])
def test_asymptotic_momenta_labels_continuous(jp, delta, K):
    # The labels at the special points equal their limits from both sides,
    # in Delta and in K.
    at = asymptotic_momenta(ModelParams(Jp=jp, Delta=delta, Omega=0.2), K)
    for d_delta, d_k in ((1e-9, 0.0), (-1e-9, 0.0), (0.0, 1e-9), (0.0, -1e-9)):
        near = asymptotic_momenta(ModelParams(Jp=jp, Delta=delta + d_delta, Omega=0.2),
                                  K + d_k)
        assert near == pytest.approx(at, abs=1e-6)


def test_asymptotic_momenta_out_of_band():
    params = ModelParams(J=1.0, Jp=0.5, Delta=4.2, Omega=0.2, L=64)
    assert asymptotic_momenta(params, math.pi) is None


def _asymptotic_momenta_text() -> str:
    """repr of the on-shell momenta over J', Delta and 401 K values each."""
    return repr([asymptotic_momenta(ModelParams(Jp=jp, Delta=delta, Omega=0.2), K)
                 for jp in (0.1, 0.5, 0.9) for delta in (-1.0, 0.3)
                 for K in np.linspace(-math.pi, math.pi, 401).tolist()])


def test_asymptotic_momenta_keep_their_bits_without_avx512(tmp_path):
    # numpy rounds arctan2 (np.angle) differently under its AVX-512 kernels; arg z comes
    # from libm's atan2, so a process with those kernels switched off gets the same bits.
    groups = avx512_groups()
    if not groups:
        pytest.skip("no AVX-512 kernels here: the main run already takes the baseline")
    code = "import test_dynamics; print(test_dynamics._asymptotic_momenta_text())"
    out = run_python(code, tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(groups))
    assert out.splitlines()[-1] == _asymptotic_momenta_text()


def test_markov_rate_values():
    assert markov_rate(FIG_EMISSION, 0.0) == pytest.approx(
        0.08 / math.sqrt(8.0), abs=1e-15)
    static = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=0.2, L=64)
    assert markov_rate(static, 0.0) == pytest.approx(0.04, abs=1e-14)
    free = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.0, L=64)
    assert markov_rate(free, 0.0) == 0.0
    detuned = ModelParams(J=1.0, Jp=0.5, Delta=4.2, Omega=0.2, L=64)
    with pytest.raises(NotEmbedded):
        markov_rate(detuned, math.pi)
    edge = ModelParams(J=1.0, Jp=0.0, Delta=2.0, Omega=0.2, L=64)
    with pytest.raises(BandEdgeSingularity):
        markov_rate(edge, 0.0)
    # (2|z| - E)(2|z| + E) would underflow to 0 for a band of width 4e-280.
    tiny = ModelParams(J=1e-280, Jp=0.0, Delta=0.0, Omega=1.0, L=16)
    assert markov_rate(tiny, 0.3) == pytest.approx(1e280, rel=1e-12)


@pytest.mark.parametrize("E", [0.0, 0.7, -2.5, 3.0, -4.0])
def test_self_energy_and_markov_rate_scale_with_the_energies(E):
    # Sigma and Gamma are energies, so scaling J, J', Delta, Omega and E by
    # 1e-280 scales Sigma and Gamma by 1e-280, although E^2 - 4|z|^2 and
    # Omega^2 underflow there.  The band half-width at K = 0.4 is 2.95:
    # E = 3 and -4 lie outside it, the rest and E_{K,Delta} inside.
    scale, K = 1e-280, 0.4
    ref = ModelParams(J=1.0, Jp=0.5, Delta=0.3, Omega=0.2, L=16)
    tiny = ModelParams(J=scale, Jp=0.5 * scale, Delta=0.3 * scale, Omega=0.2 * scale, L=16)
    a, b = self_energy(ref, K, E), self_energy(tiny, K, E * scale)
    assert a != 0.0
    assert abs(b / scale - a) <= 1e-14 * abs(a)
    assert markov_rate(tiny, K) / scale == pytest.approx(markov_rate(ref, K), rel=1e-14)


def test_fit_window_needs_two_usable_samples():
    times, values = np.arange(5.0), np.array([1.0, 0.5, 0.0, 0.25, 0.1])
    for t_lo, t_hi in ((1.5, 2.5), (3.5, 10.0), (9.0, 10.0)):  # a zero, one, none
        with pytest.raises(ParameterError, match="fewer than two usable samples"):
            fit_exponential_rate(times, values, t_lo, t_hi)
    assert fit_exponential_rate(times, values, 0.0, 1.0) == pytest.approx(math.log(2.0))


def test_markov_rate_against_decay_fit():
    # Independent check of the closed form by exponential fits of |psi_e|^2;
    # the window ends before the emitted photon wraps the ring (t ~ L / v).
    for params, expect in ((FIG_EMISSION, 0.08 / math.sqrt(8.0)),
                           (ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=0.2,
                                        L=400), 0.04)):
        times = np.linspace(0.0, 120.0, 121)
        traj = evolve_fixed_K(params, 0.0, times)
        rate = fit_exponential_rate(times, np.abs(traj.psi_e) ** 2, 10.0, 120.0)
        assert abs(rate - expect) / expect < 0.05
        assert abs(rate - markov_rate(params, 0.0)) / rate < 0.05


def test_directionality_vanishes_at_k0():
    traj = evolve_fixed_K(FIG_EMISSION, 0.0, [200.0])
    _, d = photon_spectrum_and_directionality(traj, 200.0)
    assert abs(d) < 1e-9


def test_directionality_undefined_without_emission():
    params = ModelParams(J=1.0, Jp=0.5, Delta=1.0, Omega=0.0, L=64)
    traj = evolve_fixed_K(params, 0.3, [5.0])
    n_p, d = photon_spectrum_and_directionality(traj, 5.0)
    assert d is None
    assert n_p.sum() == 0.0


def test_kpi3_emission_peaks_and_balance():
    # Emission peaks sit at the on-shell momenta; their integrated weights
    # balance and the imbalance shrinks with time (measured before the
    # emitted photon wraps the finite ring).
    p = momentum_grid(400)
    traj = evolve_fixed_K(FIG_EMISSION, math.pi / 3, [40.0, 120.0])
    n_p, d_late = photon_spectrum_and_directionality(traj, 120.0)
    _, d_early = photon_spectrum_and_directionality(traj, 40.0)
    peaks = sorted(spectrum_peaks(p, n_p))
    pm = sorted(asymptotic_momenta(FIG_EMISSION, math.pi / 3))
    dp = 2 * math.pi / 400
    assert abs(peaks[0] - pm[0]) < 2 * dp
    assert abs(peaks[1] - pm[1]) < 2 * dp
    i1 = int(np.argmin(np.abs(p - peaks[0])))
    i2 = int(np.argmin(np.abs(p - peaks[1])))
    w1 = n_p[i1 - 5:i1 + 6].sum()
    w2 = n_p[i2 - 5:i2 + 6].sum()
    assert abs(w1 - w2) / (0.5 * (w1 + w2)) < 0.02
    assert abs(d_late) < abs(d_early)
    # larger rings push the wrap-around revival later, shrinking |D| at
    # times the small ring has already revived
    big = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=800)
    t_big = evolve_fixed_K(big, math.pi / 3, [200.0])
    t_small = evolve_fixed_K(FIG_EMISSION, math.pi / 3, [200.0])
    _, d_big = photon_spectrum_and_directionality(t_big, 200.0)
    _, d_small = photon_spectrum_and_directionality(t_small, 200.0)
    assert abs(d_big) < abs(d_small)


def test_out_of_band_population_trapping_and_beat():
    # E_{K,Delta} out of band: the excited population stays near its
    # bound-state plateau and oscillates at the bound-band splitting.
    params = ModelParams(J=1.0, Jp=0.5, Delta=3.0, Omega=1.0, L=400)
    K = math.pi
    dt = 0.2
    times = np.arange(0.0, 204.8, dt)
    traj = evolve_fixed_K(params, K, times)
    pe = np.abs(traj.psi_e) ** 2
    assert pe[times > 100.0].min() > 0.8  # no decay
    gap = (solve_bound_state(params, K, +1).energy
           - solve_bound_state(params, K, -1).energy)
    sig = (pe - pe.mean()) * np.hanning(pe.size)
    freqs = 2 * math.pi * np.fft.rfftfreq(pe.size, d=dt)
    spec = np.abs(np.fft.rfft(sig))
    i_pk = int(np.argmax(spec[3:])) + 3  # skip the secular low-frequency bins
    bin_width = freqs[1] - freqs[0]
    assert abs(freqs[i_pk] - gap) < 2 * bin_width


def test_windows_upper_selective():
    params = ModelParams(J=1.0, Jp=0.5, Delta=3.0, Omega=0.2, L=64)
    win = classify_regime_and_windows(params)
    assert win.regime == "selective"
    ref = math.acos(5.0 - math.sqrt(21.0))
    assert win.w_plus == pytest.approx(ref, rel=1e-15)
    assert win.w_minus is None
    assert win.jc_plus == 0.25
    assert win.jc_plus_approx == 0.25
    assert win.embedded_fraction == pytest.approx(ref / math.pi, rel=1e-15)
    assert len(win.windows) == 1
    lo, hi = win.windows[0]
    assert lo == -hi == pytest.approx(-ref, rel=1e-15)


def test_windows_lower_selective():
    params = ModelParams(J=1.0, Jp=0.5, Delta=-2.1, Omega=0.2, L=64)
    win = classify_regime_and_windows(params)
    assert win.regime == "selective"
    assert win.w_plus is None
    assert win.w_minus is not None and 0.0 < win.w_minus < math.pi
    assert win.jc_minus == pytest.approx(math.sqrt(0.1), abs=1e-12)
    assert abs(win.jc_minus - win.jc_minus_approx) / win.jc_minus < 0.05
    assert len(win.windows) == 2
    # windows are centered near +-pi/2
    lo, hi = win.windows[1]
    assert lo < math.pi / 2 < hi


def test_windows_trivial_regimes():
    assert classify_regime_and_windows(
        ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=64)).regime == "all"
    none_win = classify_regime_and_windows(
        ModelParams(J=1.0, Jp=0.2, Delta=5.0, Omega=0.2, L=64))
    assert none_win.regime == "none"
    assert none_win.windows == ()
    assert none_win.embedded_fraction == 0.0


def _thresholds(delta: float):
    """(jc_minus, jc_plus) at J = 1: they do not depend on J'."""
    win = classify_regime_and_windows(ModelParams(J=1.0, Jp=0.0, Delta=delta))
    return win.jc_minus, win.jc_plus


def test_critical_couplings_edges_and_numeric_oracle():
    # Delta = -2J sits exactly at the regime boundary: zero threshold.
    assert _thresholds(-2.0)[0] == 0.0
    assert _thresholds(2.0)[1] == 0.0
    assert math.isnan(_thresholds(-1.9)[0])
    assert math.isnan(_thresholds(1.9)[1])

    # brute-force bisection on "does a window exist" reproduces the closed form
    def window_exists(jp: float, delta: float) -> bool:
        params = ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=0.1, L=64)
        return classify_regime_and_windows(params).regime != "none"

    # at Delta = -7 the vertex leaves [-1, 1]: the window opens at K = pi
    for delta, jc in ((-2.1, _thresholds(-2.1)[0]), (3.0, _thresholds(3.0)[1]),
                      (-7.0, _thresholds(-7.0)[0])):
        lo, hi = 1e-4, 3.0
        assert not window_exists(lo, delta) and window_exists(hi, delta)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if window_exists(mid, delta):
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(jc, abs=1e-11)


def _embedding_quadratic(jp: float, delta: float, c) -> Fraction:
    """4|z|^2 - E_K^2 at J = 1 and cos K = c, exact: >= 0 where embedded."""
    c, jp, delta = Fraction(c), Fraction(jp), Fraction(delta)
    return -(4 * jp**2 * c**2 - 4 * jp * (delta + 2) * c + delta**2 - 4 - 4 * jp**2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(jp=st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)),
       delta=st.floats(-6.0, 6.0))
@example(jp=1.0, delta=6.0)  # J' = jc_plus: the window about K = 0 is one point
@example(jp=math.sqrt(0.1), delta=-2.1)  # J' = jc_minus: tangent at cos K = -J'/2
@example(jp=2.0, delta=-6.0)  # both at once: a quartic tangency at K = pi
@example(jp=5e-324, delta=2.0)  # a margin 4J' cos K below its own rounding
def test_windows_match_closed_form_interval(jp, delta):
    win = classify_regime_and_windows(ModelParams(J=1.0, Jp=jp, Delta=delta, L=64))
    if jp == 0.0:  # E_K = Delta and 2|z| = 2J for every K
        embedded = abs(delta) <= 2.0
        assert win.regime == ("all" if embedded else "none")
        assert win.windows == (((-math.pi, math.pi),) if embedded else ())
        assert win.embedded_fraction == (1.0 if embedded else 0.0)
        return
    # Zero to the rounding of the quadratic's coefficients and of cos K.
    tol = 16 * np.finfo(float).eps * (2.0 + 4.0 * jp + abs(delta)) ** 2

    def q(K):
        return _embedding_quadratic(jp, delta, math.cos(K))

    if not win.windows:  # the concave quadratic's maximum over [-1, 1] is not above 0
        assert win.regime == "none" and win.embedded_fraction == 0.0
        vertex = (Fraction(delta) + 2) / (2 * Fraction(jp))
        assert _embedding_quadratic(jp, delta, min(max(vertex, -1), 1)) <= tol
        return
    lo, hi = max(win.windows[-1][0], 0.0), win.windows[-1][1]  # the part at K >= 0
    assert win.embedded_fraction == pytest.approx((hi - lo) / math.pi, abs=1e-15)
    # Each end is a root, or sits at 0 or pi inside the embedded set, and the
    # midpoint is embedded: the quadratic is concave in cos K, so the window
    # lies in the embedded set ...
    assert abs(q(lo)) <= tol or (lo == 0.0 and q(lo) >= -tol)
    assert abs(q(hi)) <= tol or (hi == math.pi and q(hi) >= -tol)
    assert q(0.5 * (lo + hi)) >= -tol
    # ... and is all of it: the quadratic's maximum over [-1, 1], at the
    # clipped vertex, is inside (to the sqrt(tol) / (2 J') by which tol can
    # move a root near a tangency), and nothing 1e-8 past an end is embedded.
    vertex = min(max((Fraction(delta) + 2) / (2 * Fraction(jp)), -1), 1)
    slack = math.sqrt(tol) / (2.0 * jp)
    assert math.cos(hi) - slack <= vertex <= math.cos(lo) + slack
    assert lo == 0.0 or q(lo - min(1e-8, lo)) <= tol
    assert hi == math.pi or q(hi + min(1e-8, math.pi - hi)) <= tol


def test_windows_narrow_and_at_an_underflowing_coupling():
    # 1e-9 above jc_minus the windows are ~1.1e-4 wide, far below a scan step
    # pi/4000: to first order in dJ' the roots sit -+ sqrt(2 jc dJ') / jc
    # about cos K* = (Delta + 2) / (2 jc) = -0.354.
    jc, d = _thresholds(-2.5)[0], 1e-9
    win = classify_regime_and_windows(ModelParams(J=1.0, Jp=jc + d, Delta=-2.5))
    assert win.regime == "selective" and len(win.windows) == 2
    c_star = -0.5 / (2.0 * jc)
    width = 2.0 * math.sqrt(2.0 * jc * d) / (jc * math.sqrt(1.0 - c_star**2))
    assert win.w_minus == pytest.approx(width, rel=1e-6)
    assert win.windows[1][0] < math.acos(c_star) < win.windows[1][1]
    # J'^2 underflows at J' = 1e-300: at Delta = -2J the roots are cos K = -+1,
    # not the single point cos K = 0 of a formula that squares J'.
    # At J' = 5e-324 (Delta - 2J) / J' overflows, yet it meets only the
    # vanishing s = Delta + 2J.
    for jp in (1e-300, 5e-324):
        win = classify_regime_and_windows(ModelParams(J=1.0, Jp=jp, Delta=-2.0))
        assert win.regime == "all"
        assert win.windows == ((-math.pi, math.pi),) and win.embedded_fraction == 1.0


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 2.0**-600, 1e100, 1e150, 1e200])
def test_windows_are_scale_free(scale):
    # E_{K,Delta} and 2|z(K)| are linear in (J, J', Delta), so the windows do
    # not depend on the scale and the critical couplings scale with it, also
    # where a product of two inputs, such as J (Delta + 2J) at 1e-200 or J^2
    # at 1e200, would under- or overflow.
    for jp, delta in ((1.0, 1.0), (0.5, 3.0), (1.2, -3.0), (0.5, -2.0), (0.3, 2.5),
                      (1.0, -2.1), (1.0, -7.0)):
        ref = classify_regime_and_windows(ModelParams(J=1.0, Jp=jp, Delta=delta))
        win = classify_regime_and_windows(
            ModelParams(J=scale, Jp=jp * scale, Delta=delta * scale))
        assert win.regime == ref.regime
        assert np.allclose(win.windows, ref.windows, rtol=1e-14, atol=0.0)
        assert win.embedded_fraction == pytest.approx(ref.embedded_fraction, rel=1e-14)
        for name in ("jc_plus", "jc_minus", "jc_plus_approx", "jc_minus_approx"):
            assert np.allclose(getattr(win, name) / scale, getattr(ref, name),
                               rtol=1e-14, atol=0.0, equal_nan=True), name
    win = classify_regime_and_windows(ModelParams(J=scale, Jp=scale, Delta=scale))
    assert win.w_plus == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)  # cos K = -1/2


def test_localized_initial_state():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=64)
    run = evolve_localized(params, 3, [0.0])
    obs = position_observables(run, 0.0)
    i3 = int(np.flatnonzero(obs.x == 3)[0])
    assert obs.p_excited[i3] == pytest.approx(1.0, abs=1e-12)
    assert np.delete(obs.p_excited, i3).max() < 1e-24
    assert obs.n_photon.max() < 1e-24
    assert run.pe_total()[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x0", [1.5, math.nan, math.inf])
def test_localized_rejects_a_non_integer_site(x0):
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=16)
    with pytest.raises(ParameterError, match="x0"):
        evolve_localized(params, x0, [0.0])
    run = evolve_localized(params, 2.0, [0.0])  # an integral float is a site
    assert run.x0 == 2


def test_localized_site_phase_is_exact_for_any_integer_site():
    # c_K = e^{i K x0} / sqrt(L) from integers: x0 and x0 + 10^15 L are one
    # ring site with the same bits, and x0 = 0 is 1 / sqrt(L) exactly.
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=64)
    near = evolve_localized(params, 3, [0.0, 5.0])
    far = evolve_localized(params, 3 + 10**15 * params.L, [0.0, 5.0])
    assert far.x0 == 3 + 10**15 * params.L
    assert np.array_equal(near.c, far.c)
    a, b = position_observables(near, 5.0), position_observables(far, 5.0)
    for name in ("n_photon", "p_ground", "p_excited"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    kgrid = momentum_grid(params.L)
    assert np.abs(near.c - np.exp(3j * kgrid) / 8.0).max() <= 1e-15
    assert np.array_equal(evolve_localized(params, 0, [0.0]).c, np.full(params.L, 0.125))


def test_localized_sum_rules_and_norm():
    params = ModelParams(J=1.0, Jp=0.4, Delta=0.3, Omega=0.3, L=128)
    run = evolve_localized(params, 0, [0.0, 7.0, 23.0])
    assert np.abs(run.total_norm() - 1.0).max() < 1e-9
    for t in (7.0, 23.0):
        obs = position_observables(run, t)
        assert abs(obs.n_photon.sum() - obs.p_ground.sum()) < 1e-9
        assert abs(obs.p_excited.sum() + obs.p_ground.sum() - 1.0) < 1e-9
        assert obs.n_photon.min() > -1e-15


@settings(derandomize=True, max_examples=60, deadline=None)
@given(half=st.integers(2, 65), jp=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
       delta=st.floats(-3.0, 3.0), omega=st.floats(0.05, 1.0), x0=st.integers(-10**9, 10**9),
       width=st.integers(1, 130), early=st.floats(0.0, 2.0), late=st.floats(20.0, 200.0))
@example(half=65, jp=0.5, delta=0.0, omega=0.2, x0=3, width=126, early=0.0, late=60.0)
def test_position_observables_match_the_whole_joint_amplitude(half, jp, delta, omega, x0,
                                                              width, early, late):
    # Panels of `width` rows and columns (126 at L = 130 under the package's own panel
    # size), also where they do not divide L, against the L x L joint amplitude.
    L = 2 * half
    params = ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=omega, L=L)
    run = evolve_localized(params, x0, [0.0, early, late], snapshots=[early, late])
    panel = 128 * L * min(width, L)
    with mock.patch.object(dynamics, "_PANEL_BYTES", panel):
        for t in (early, late):
            obs = position_observables(run, t)
            for got, ref in zip((obs.n_photon, obs.p_ground, obs.p_excited),
                                position_reference(run, t)):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    pops = np.abs(run.psi_e[1:]) ** 2 + np.sum(np.abs(run.phi) ** 2, axis=2)
    norm = np.sum(np.abs(run.c) ** 2 * pops, axis=1)
    assert np.abs(run.total_norm() - norm).max() <= 1e-14


def test_localized_observables_build_no_snapshot_sized_temporaries(tmp_path):
    # position_observables and total_norm work a panel at a time, so together they
    # raise the peak RSS by far less than a snapshot of phi (16 L^2 bytes); the L x L
    # joint amplitude, its gather and its transforms took about 3.  phi is filled in
    # place, so that building it leaves no freed heap for the calls to reuse.
    L = 1024
    code = (
        PEAK_KIB +
        "import numpy as np\n"
        "from wqed_mobile import ModelParams, position_observables\n"
        "from wqed_mobile.dynamics import LocalizedRun\n"
        "def run(L):\n"
        "    rng, t = np.random.default_rng(L), np.array([0.0, 1.0])\n"
        "    phi = np.empty((2, L, L), dtype=complex)\n"
        "    rng.standard_normal(out=phi.view(float))\n"
        "    c = np.exp(2j * np.pi * rng.random(L)) / np.sqrt(L)\n"
        "    return LocalizedRun(ModelParams(J=1.0, Jp=0.5, L=L), 0, t, c,\n"
        "                        np.ones((2, L), dtype=complex), phi, t)\n"
        "def observe(run):\n"
        "    for t in run.snapshots:\n"
        "        position_observables(run, t)\n"
        "    run.total_norm()\n"
        "observe(run(8))\n"
        f"big = run({L})\n"
        "before = peak()\n"
        "observe(big)\n"
        "print(peak() - before)\n")
    rise_bytes = 1024 * int(run_python(code, tmp_path).split()[-1])
    assert rise_bytes < 0.25 * 16 * L**2


def test_localized_decay_mobile_vs_static():
    # Fully embedded level (Delta = 0): mobile and static emitters both decay
    # to a small residual.
    times = [0.0, 60.0]
    mobile = evolve_localized(
        ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=256), 0, times)
    static = evolve_localized(
        ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=0.2, L=256), 0, times)
    assert mobile.pe_total()[1] < 0.3
    assert static.pe_total()[1] < 0.3


def test_localized_wavefronts_small_lattice():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=256)
    t = 40.0
    run = evolve_localized(params, 0, [t])
    obs = position_observables(run, t)
    assert abs(wavefront_position(obs.x, obs.n_photon) - 2.0 * t) <= 3
    assert abs(wavefront_position(obs.x, obs.p_excited) - 1.0 * t) <= 3


def _wavefront_loop(x, profile):
    """Site-by-site reference for wavefront_position."""
    r_max = int(np.max(np.abs(x)))
    folded = np.zeros(r_max + 1)
    for xi, vi in zip(np.abs(x), profile):
        folded[xi] = max(folded[xi], vi)
    lobe = next((i for i in range(r_max - 1, 0, -1)
                 if folded[i] > 1e-3 * folded.max()
                 and folded[i] >= folded[i - 1] and folded[i] >= folded[i + 1]), None)
    if lobe is None:
        return None
    return next((i for i in range(r_max, lobe, -1)
                 if folded[i] >= 0.1 * folded[lobe]), lobe)


def test_wavefront_position_matches_loop_reference():
    rng = np.random.default_rng(7)
    for _ in range(500):
        L = 2 * int(rng.integers(2, 40))
        x = np.arange(-L // 2, L // 2)
        profile = rng.random(L) ** int(rng.integers(1, 30)) * (rng.random(L) < rng.random())
        expected = _wavefront_loop(x, profile)
        if expected is None:
            with pytest.raises(ParameterError):
                wavefront_position(x, profile)
        else:
            assert wavefront_position(x, profile) == expected


def test_localized_static_emitter_recovers_fixed_case():
    # J' = 0: the emitter never moves (P_e stays a delta at x0) while the
    # photon front still runs at 2Jt.
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=0.2, L=256)
    t = 40.0
    run = evolve_localized(params, 0, [t])
    obs = position_observables(run, t)
    i0 = int(np.flatnonzero(obs.x == 0)[0])
    assert np.delete(obs.p_excited, i0).max() < 1e-20
    assert abs(wavefront_position(obs.x, obs.n_photon) - 2.0 * t) <= 3


def test_localized_run_is_deterministic():
    params = ModelParams(J=1.0, Jp=0.3, Delta=0.5, Omega=0.4, L=64)
    run1 = evolve_localized(params, 0, [11.0])
    run2 = evolve_localized(params, 0, [11.0])
    assert np.array_equal(run1.psi_e, run2.psi_e)
    assert np.array_equal(run1.phi, run2.phi)


@pytest.mark.parametrize("jp, solves", [(0.5, 21), (0.0, 1)])
def test_localized_solves_each_mirrored_block_once(monkeypatch, jp, solves):
    # Block -K is block K with p -> -p, so L = 40 blocks take L/2 + 1 solves;
    # at J' = 0 all blocks are the same matrix and take one.
    calls = []

    def counted(params, Ks):
        calls.extend(Ks)
        return chunk_modes(params, Ks)

    chunk_modes = dynamics._chunk_modes
    monkeypatch.setattr(dynamics, "_chunk_modes", counted)
    evolve_localized(ModelParams(J=1.0, Jp=jp, Delta=0.5, Omega=0.4, L=40), 0, [0.0, 5.0])
    assert len(calls) == solves


@pytest.mark.parametrize("params, Ks", [
    # Merged rings at K = 0 and -pi, and a level below the band.
    (ModelParams(J=1.0, Jp=0.5, Delta=-3.0, Omega=1.0, L=40), momentum_grid(40)),
    # J' = 0: every ring merged; Omega = 0: no bright pole.
    (ModelParams(J=1.0, Jp=0.0, Delta=0.3, Omega=0.4, L=12), momentum_grid(12)),
    (ModelParams(J=1.0, Jp=0.7, Delta=0.3, Omega=0.0, L=12), momentum_grid(12)),
    # J' = J: the band at K = -pi is one pole, solved by its quadratic.
    (ModelParams(J=1.0, Jp=1.0, Delta=0.5, Omega=0.2, L=10), momentum_grid(10)),
    # Roots below and above the band at strong coupling.
    (ModelParams(J=1.0, Jp=1.7, Delta=3.0, Omega=3.0, L=16), momentum_grid(16)),
    # The near-merged families of the engine's property test.
    (ModelParams(J=1.0, Jp=0.0146, Delta=-0.645, Omega=1e-6, L=42), [1e-12, 0.3, -math.pi]),
    (ModelParams(J=1.0, Jp=1 - 1e-12, Delta=2.0, Omega=1e-9, L=20), [-math.pi / 2, 0.0, 1.1]),
    (ModelParams(J=1.0, Jp=1 - 1e-12, Delta=-2.0, Omega=1e-9, L=22),
     [math.pi - 1e-12, -math.pi, 0.4]),
])
def test_batched_blocks_equal_their_one_block_solves(params, Ks):
    # Solving the roots of many blocks at once, one, three or all blocks per
    # batch, changes no bit of any block's energies, weights or 1 / (E_n - P),
    # all of whose columns are materialised here, also in panels of 3.
    def inverse(modes, doubles):
        panels = dynamics._inverse_panels(modes, np.empty(doubles))
        return np.hstack([np.empty((modes.tau.size, 0))] + [p.copy() for _, p in panels])

    single = [next(_chunk_modes(params, [K])) for K in Ks]
    whole = [inverse(one, params.L * (params.L + 1)) for one in single]
    for per in (1, 3, len(Ks)):
        for i in range(0, len(Ks), per):
            for one, full, modes in zip(single[i:], whole[i:],
                                        dynamics._chunk_modes(params, Ks[i:i + per])):
                assert np.array_equal(modes.energy, one.energy)
                assert np.array_equal(modes.weight, one.weight)
                assert np.array_equal(inverse(modes, params.L * (params.L + 1)), full)
                assert np.array_equal(inverse(modes, 3 * (params.L + 1)), full)


@pytest.mark.parametrize("J, delta", [(1.41, 1e300), (1.0, 1e160), (1.41, -1e300)])
def test_one_pole_weights_at_huge_detuning(J, delta):
    # J' = J closes the band at K = pi into one pole, solved by its quadratic.  Its two
    # weights stay finite and sum to 1 where tau * tau overflows: they were [0, nan]
    # at Delta = 1e300 and [1e-320, nan] at 1e160.
    params = ModelParams(J=J, Jp=J, Delta=delta, Omega=0.5, L=6)
    weight = next(_chunk_modes(params, [math.pi])).weight
    assert weight.size == 2 and np.all(np.isfinite(weight))
    assert abs(weight.sum() - 1.0) <= 1e-15


def test_stepped_phases_match_exact_phases():
    # 2001 samples to t = 2000 and two times off the grid: every exp(-iEt),
    # stepped or fresh, is within 1e-13 of exp(-iEt) from the exact product
    # E t (the double product's rounding alone reaches 4.5e-13 at E t = 6000).
    # The two off the grid start no steps and are turned by their rounding
    # all the same.
    off = np.array([49.3, 1234.567])
    times = np.sort(np.concatenate((np.linspace(0.0, 2000.0, 2001), off)))
    E = np.random.default_rng(5).uniform(-3.0, 3.0, 300)
    phases, _ = dynamics._psi_e(times, list(E[:, None]), [np.ones(1)] * E.size, [])
    assert np.abs(phases - exact_phases(times, E)).max() <= 1e-13


def test_phases_take_each_product_exactly():
    # Every row, turned by the exact rounding of its product, keeps exp(-i a b)
    # to a few eps even where a b (up to 3e20) is far past double's
    # resolution (a long-double product is up to 2 rad off there).
    a = np.geomspace(1e-3, 1e20, 47)
    b = np.random.default_rng(7).uniform(-3.0, 3.0, 100)
    assert np.abs(dynamics._phases(a, b) - exact_phases(a, b)).max() <= 8 * np.finfo(float).eps


def test_phases_stay_on_the_unit_circle():
    # Every row keeps |exp(-i a b)| = 1 to rounding at any a b, and Veltkamp's
    # split overflows at no factor up to 1.79e308.
    a = np.geomspace(1e-3, 1e20, 47)
    b = np.random.default_rng(7).uniform(-3.0, 3.0, 100)
    assert np.abs(np.abs(dynamics._phases(a, b)) - 1.0).max() <= 4 * np.finfo(float).eps
    with np.errstate(over="raise", invalid="raise"):
        huge = dynamics._phases(np.array([1.79e308]), np.array([1e-300, -3e-299]))
    assert np.abs(np.abs(huge) - 1.0).max() <= 4 * np.finfo(float).eps


def test_each_phase_row_is_evaluated_once(monkeypatch):
    # phi reads psi_e's rows, so _phases takes only psi_e's: over 201 times a
    # fixed-K run takes 4 fresh rows and 1 step factor (phi's own evaluation
    # took all 201 again), and a localized run the same rows for any snapshots.
    rows, phases = [], dynamics._phases
    monkeypatch.setattr(dynamics, "_phases", lambda a, b: rows.append(a.size) or phases(a, b))
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=40)
    evolve_fixed_K(params, 0.5, np.linspace(0.0, 200.0, 201))
    assert sum(rows) <= 5
    counts = []
    for snapshots in (None, [10.0], [2.0, 10.0]):
        rows.clear()
        evolve_localized(params, 0, np.linspace(0.0, 10.0, 11), snapshots)
        counts.append(sum(rows))
    assert counts == [2, 2, 2]


@pytest.mark.parametrize("t", [1e6, 1e7, 1e8])
def test_norm_holds_on_a_grid_without_steps(t):
    # geomspace times recur no step, so psi_e takes every phase fresh; when phi
    # evaluated its own phases and left the rounding of E t in psi_e's alone,
    # the norm drifted by 4.6e-12, 5.8e-11 and 7.0e-10 here.  Now phi reads
    # psi_e's rows, so both share every phase bit.
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=64)
    traj = evolve_fixed_K(params, 0.5, np.geomspace(t / 1e4, t, 5))
    assert np.abs(traj.norms() - 1.0).max() <= 1e-12


def test_localized_psi_e_matches_dense_to_t_1000():
    params = ModelParams(J=1.0, Jp=0.4, Delta=0.5, Omega=0.3, L=16)
    times = np.sort(np.append(np.linspace(0.0, 1000.0, 501), 333.3))
    run = evolve_localized(params, 0, times, snapshots=[1000.0])
    for m, K in enumerate(momentum_grid(params.L)):
        psi_ref, _ = _dense_evolution(params, K, 1.0, np.zeros(params.L), times)
        assert np.abs(run.psi_e[:, m] - psi_ref).max() <= 1e-10


def _dense_evolution(params, K, psi_e0, phi0, times):
    """exp(-i h t) (psi_e0, phi0) from a dense eigendecomposition of the block."""
    w, v = np.linalg.eigh(block_hamiltonian(params, K))
    amps = v @ ((v.T @ np.concatenate(([psi_e0], phi0)))[:, None]
                * np.exp(-1j * np.outer(w, times)))
    return amps[0], amps[1:].T


@settings(derandomize=True, max_examples=120, deadline=None)
@given(block=blocks())
# The emitter level on a pole pair, where unrefined eigh weights err by 2e-10.
@example(block=(ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=math.exp(-13.0), L=52), 0.0))
# Pole families that nearly coincide, closer than their rounded energies
# resolve: K next to 0, and J' next to J (with the emitter on a pair, and
# with the whole band 3e-12 wide).
@example(block=(ModelParams(J=1.0, Jp=0.0146, Delta=-0.645, Omega=1e-6, L=42), 1e-12))
@example(block=(ModelParams(J=1.0, Jp=1 - 1e-12, Delta=2.0, Omega=1e-9, L=20), -math.pi / 2))
@example(block=(ModelParams(J=1.0, Jp=1 - 1e-12, Delta=-2.0, Omega=1e-9, L=22),
                math.pi - 1e-12))
def test_arrowhead_engine_matches_dense_property(block):
    params, K = block
    L = params.L
    # Spectrum: the secular roots plus the dark states at each pole group.
    modes = next(_chunk_modes(params, [K]))
    n_dark = np.bincount(modes.group) - modes.bright
    energies = np.concatenate((modes.energy, np.repeat(modes.pole, n_dark)))
    weights = np.concatenate((modes.weight, np.zeros(n_dark.sum())))
    order = np.argsort(energies, kind="stable")
    dense = dense_block_diagonalize(params, K)
    assert np.abs(energies[order] - dense.eigenvalues).max() <= 1e-10
    # Weights, summed over clusters of eigenvalues closer than 1e-9, where the
    # dense eigenvectors are not unique.  They are refined on the double block,
    # whose rounded photon energies are the engine's poles: against the
    # long-double block the engine reads 1.94e-10 at the Omega = e^-13 resonance.
    cuts = np.flatnonzero(np.diff(dense.eigenvalues) > 1e-9) + 1
    dense_weights = refined_dense_weights(block_hamiltonian(params, K), 1e-9)
    assert np.abs(np.add.reduceat(weights[order], np.r_[0, cuts])
                  - np.add.reduceat(dense_weights, np.r_[0, cuts])).max() <= 1e-10

    times = np.array([0.0, 0.7, 13.0, 91.0])
    traj = evolve_fixed_K(params, K, times)
    psi_ref, phi_ref = _dense_evolution(params, K, 1.0, np.zeros(L), times)
    assert np.abs(traj.psi_e - psi_ref).max() <= 1e-10
    assert np.abs(traj.phi - phi_ref).max() <= 1e-10
    assert np.abs(traj.norms() - 1.0).max() <= 1e-10

    run = evolve_localized(params, 1, [0.0, 9.0, 40.0], snapshots=[9.0, 40.0])
    assert np.abs(run.total_norm() - 1.0).max() <= 1e-10
    for t in (9.0, 40.0):
        obs = position_observables(run, t)
        assert abs(obs.n_photon.sum() - obs.p_ground.sum()) <= 1e-10
        assert abs(obs.p_excited.sum() + obs.p_ground.sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("L", [4, 6, 8, 32])
@pytest.mark.parametrize("jp", [0.0, 0.3, 1.0, 1.7])
@pytest.mark.parametrize("omega", [0.0, 0.4])
def test_localized_columns_match_their_own_dense_blocks(L, jp, omega):
    # Each column m of a localized run is the evolution of block K_m from the
    # excited emitter, checked against that block's own dense eigh, so that a
    # mirrored column is never checked only against its source block.
    params = ModelParams(J=1.0, Jp=jp, Delta=0.5, Omega=omega, L=L)
    times = np.array([0.0, 0.7, 13.0, 40.0])
    run = evolve_localized(params, 3, times, snapshots=[13.0, 40.0])
    for m, K in enumerate(momentum_grid(L)):
        psi_ref, phi_ref = _dense_evolution(params, K, 1.0, np.zeros(L), times)
        assert np.abs(run.psi_e[:, m] - psi_ref).max() <= 1e-12
        assert np.abs(run.phi[:, m, :] - phi_ref[2:]).max() <= 1e-12


@pytest.mark.parametrize("jp, omega, K", [
    (0.5, 0.2, math.pi / 3),
    (0.0, 1e-6, 0.0),
    (0.5, 0.0, math.pi),
])
def test_arrowhead_engine_matches_dense_at_L_2000(jp, omega, K):
    params = ModelParams(J=1.0, Jp=jp, Delta=0.0, Omega=omega, L=2000)
    times = np.array([0.0, 50.0, 200.0])
    traj = evolve_fixed_K(params, K, times)
    psi_ref, phi_ref = _dense_evolution(params, K, 1.0, np.zeros(2000), times)
    assert np.abs(traj.psi_e - psi_ref).max() <= 1e-10
    assert np.abs(traj.phi - phi_ref).max() <= 1e-10


def test_localized_snapshots_keep_phi_only_where_asked():
    params = ModelParams(J=1.0, Jp=0.4, Delta=0.3, Omega=0.3, L=32)
    times = np.linspace(0.0, 20.0, 11)
    full = evolve_localized(params, 2, times)
    some = evolve_localized(params, 2, times, snapshots=[8.0, 20.0])
    assert full.phi.shape == (11, 32, 32) and some.phi.shape == (2, 32, 32)
    assert np.array_equal(some.psi_e, full.psi_e)
    assert np.array_equal(some.phi, full.phi[[4, 10]])
    assert np.array_equal(some.snapshots, [8.0, 20.0])
    a, b = position_observables(some, 8.0), position_observables(full, 8.0)
    assert np.array_equal(a.n_photon, b.n_photon)
    with pytest.raises(ParameterError, match="snapshot times"):
        position_observables(some, 4.0)
    with pytest.raises(ParameterError, match="t = 4.5 is not one of the sampled times"):
        evolve_localized(params, 2, times, snapshots=[4.5])


@pytest.mark.parametrize("jp", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("omega", [0.2, 0.4, 1.0])
@pytest.mark.parametrize("delta", [-3.0, 0.0, 3.0])
def test_outer_roots_are_the_bound_states(jp, omega, delta):
    # Wherever a bound state decays within a few sites, the ring of L = 400
    # cannot shift it, so the engine's lowest and highest roots are the
    # bound-state solver's energies.
    params = ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=omega, L=400)
    for K in (0.0, math.pi / 3, 2 * math.pi / 3, math.pi):
        energy = next(_chunk_modes(params, [K])).energy
        for branch, root in ((-1, energy[0]), (+1, energy[-1])):
            state = solve_bound_state(params, K, branch)
            if state.loc_length < 10:
                assert abs(root - state.energy) <= 1e-13 * abs(state.energy)


def _ring_lattice(ring):
    """Each distinct pole of the ring as X = pi j + s ell / 2 in long double,
    with its multiplicity among the grid momenta."""
    n = np.arange(ring.X.size)
    if 0 < ring.ell < math.pi:
        j, s, M = (n + 1) // 2, np.where(n % 2 == 0, 1, -1), np.ones(n.size)
    else:
        j, s, M = n, np.full(n.size, ring.ell > 0), np.full(n.size, 2.0)
        if ring.ell == 0:
            M[[0, -1]] = 1  # the band edges
    return (np.arccos(np.longdouble(-1)) * j, s * np.longdouble(ring.ell) / 2, M)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(L=st.integers(2, 32).map(lambda n: 2 * n),
       jp=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 2.0)),
       K=st.one_of(st.sampled_from((0.0, math.pi)), st.floats(-math.pi, math.pi)),
       where=st.sampled_from(("band", "edge", "pole", "below", "below-edge")),
       u=st.floats(0.01, 0.99))
# A subnormal K, where arg z(K) underflows: cmath.phase raised OverflowError there.
@example(L=4, jp=1.0, K=5e-324, where="band", u=0.5)
def test_ring_sum_matches_a_long_double_direct_sum(L, jp, K, where, u):
    # The engine's closed forms against the direct sum over the same poles,
    # in long double: in the lower half of the band (the upper half is its
    # mirror), 1e-6 of the band from its edge (inside and out), 1e-3 of an
    # interval from a pole, and below the band.  Each E - P is formed from
    # angle differences, so the sum is exact to ~1e-18 even next to a pole;
    # the error is relative to the sum of the magnitudes, since S crosses
    # zero between the poles.
    ring = dynamics._ring(ModelParams(J=1.0, Jp=jp, Delta=0.0, Omega=0.0, L=L), K,
                          32 * np.finfo(float).eps * (1.0 + jp))
    assume(ring.X is not None)
    b = np.longdouble(ring.b)
    j, s, M = _ring_lattice(ring)
    X = j + s
    if where.startswith("below"):
        kappa = 3.0 * u if where == "below" else 2 * math.asinh(math.sqrt(1e-6 / 2))
        S = dynamics._ring_sum_below(ring.b, L, math.sin(0.5 * ring.ell) ** 2,
                                     np.array([kappa]))[0][0]
        d = -4 * b * (np.sinh(np.longdouble(kappa) / 2) ** 2 + np.sin(X / L) ** 2)
    else:
        lower = np.flatnonzero(ring.X <= L * math.pi / 4)
        if where == "pole":
            k = lower[int(u * lower.size)]
            delta = 1e-3 * (ring.gap[k + 1] if u < 0.5 else -ring.gap[k])
        else:
            beta = (np.longdouble(u) * L * math.pi / 4 if where == "band"
                    else L * np.arcsin(np.sqrt(np.longdouble(1e-6) / 2)))
            k = lower[np.argmin(np.abs(X[lower] - beta))]
            delta = beta - X[k]
        S = dynamics._ring_sum_in_band(ring.b, L, ring.X[[k]], ring.w[[k]],
                                       np.array([float(delta)]))[0][0]
        # E - P = 4b sin((beta + X) / L) sin((beta - X) / L), beta = X_k + delta
        d = 4 * b * (np.sin((j[k] + j + s[k] + s + delta) / L)
                     * np.sin((j[k] - j + s[k] - s + delta) / L))
    ref, scale = np.sum(M / d) / L, np.sum(M / np.abs(d)) / L
    assert abs(S - ref) <= 1e-10 * scale
