"""Scattering-amplitude tests: exact sum rules, conservation laws, limits."""

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wqed_mobile import (
    ModelParams,
    ParameterError,
    SizeError,
    momentum_grid,
    omega_tilde,
    scatter,
    sweep_scattering,
    v_emitter,
    v_photon,
    wrap,
    xi_emitter,
    z_of_K,
)
from wqed_mobile import scattering


def _complex_cols(table, name):
    return table[f"{name}_re"] + 1j * table[f"{name}_im"]


def test_static_resonant_full_reflection():
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=0.5, L=8)
    for k_i in (-2.0, 0.3, 1.1):
        out = scatter(params, k_i, math.pi / 2)
        assert abs(out.t) < 1e-12
        assert abs(out.r + 1.0) < 1e-12
        assert abs(wrap(out.p_f2 + math.pi / 2)) < 1e-12


def test_zero_total_momentum_swaps_the_pair():
    params = ModelParams(J=1.0, Jp=0.35, Delta=0.4, Omega=0.6, L=8)
    rng = np.random.default_rng(10)
    for p_i in rng.uniform(0.2, math.pi - 0.2, size=20):
        out = scatter(params, -p_i, p_i)
        assert abs(wrap(out.p_f2 + p_i)) < 1e-10
        assert abs(wrap(out.k_f2 - p_i)) < 1e-10


def test_reference_point_values():
    # (J'=0.1, Omega=0.5, Delta=0, k_i=pi/3, p_i=pi/2)
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=8)
    out = scatter(params, math.pi / 3, math.pi / 2)
    # independent arithmetic straight from the dispersions
    detuning = (-2 * math.cos(math.pi / 2) - 0.2 * math.cos(math.pi / 3)) \
        - (-0.2 * math.cos(math.pi / 3 + math.pi / 2))
    gamma = 0.25 / (2 * (math.sin(math.pi / 2) - 0.1 * math.sin(math.pi / 3)))
    assert out.detuning == pytest.approx(detuning, abs=1e-14)
    assert out.gamma == pytest.approx(gamma, abs=1e-14)
    assert out.detuning == pytest.approx(-0.2732, abs=1e-4)
    assert out.gamma == pytest.approx(0.13685, abs=1e-5)
    assert abs(out.t) ** 2 == pytest.approx(
        detuning**2 / (detuning**2 + gamma**2), abs=1e-14)
    assert abs(out.t) ** 2 == pytest.approx(0.799, abs=1e-3)


def test_unitarity_and_sum_rule_on_grid():
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=8)
    table = sweep_scattering(params, 101, 101)
    t = _complex_cols(table, "t")
    r = _complex_cols(table, "r")
    assert np.abs(1.0 - (table["T"] + table["R"])).max() < 1e-10
    assert np.abs(1.0 + r - t).max() < 1e-12


def test_energy_and_momentum_conservation():
    params = ModelParams(J=1.0, Jp=0.3, Delta=-0.5, Omega=0.7, L=8)
    table = sweep_scattering(params, 61, 61)
    K = table["k_i"] + table["p_i"]
    res_e = np.abs(omega_tilde(params, K, table["p_f2"])
                   - omega_tilde(params, K, table["p_i"]))
    res_k = np.abs(wrap(table["p_f2"] + table["k_f2"] - table["p_i"] - table["k_i"]))
    assert res_e.max() < 1e-10
    assert res_k.max() < 1e-10


def test_arccos_branch_matches_exact_root():
    # The prefactored arccos and the exact second root -p_i - 2 arg z(K)
    # agree everywhere off degeneracy.
    params = ModelParams(J=1.0, Jp=0.4, Delta=0.2, Omega=0.5, L=8)
    rng = np.random.default_rng(11)
    k = rng.uniform(-math.pi, math.pi, size=400)
    p = rng.uniform(-math.pi, math.pi, size=400)
    table = sweep_scattering(params, 41, 41)
    for k_i, p_i in zip(k, p):
        out = scatter(params, k_i, p_i)
        exact = wrap(-p_i - 2.0 * np.angle(complex(z_of_K(params, k_i + p_i))))
        assert abs(wrap(out.p_f2 - exact)) < 1e-9
    del table


def test_reflected_photon_stays_behind_the_emitter():
    params = ModelParams(J=1.0, Jp=0.3, Delta=0.0, Omega=0.5, L=8)
    table = sweep_scattering(params, 101, 101)
    ok = ~table["degenerate"]
    before = v_photon(params, table["p_i"]) - v_emitter(params, table["k_i"])
    after = v_photon(params, table["p_f2"]) - v_emitter(params, table["k_f2"])
    assert np.all(np.sign(after[ok]) == -np.sign(before[ok]))


def test_static_sweep_is_k_independent_and_even():
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=0.5, L=8)
    n = 64
    table = sweep_scattering(params, n, n)
    T = table["T"].reshape(n, n)
    assert np.abs(T - T[0]).max() < 1e-12  # no k dependence
    mirror = (n - np.arange(n)) % n  # grid index of -p
    assert np.abs(T - T[:, mirror]).max() < 1e-12
    # static closed form t = detuning / (detuning + i Omega^2 / (2 J sin p))
    p = momentum_grid(n)
    d = -2 * np.cos(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(np.sin(p) == 0.0, np.inf, 0.25 / (2 * np.sin(p)))
        t_static = np.where(np.isinf(g), 0.0, d / (d + 1j * g))
    t = _complex_cols(table, "t").reshape(n, n)
    assert np.abs(t - t_static[None, :]).max() < 1e-12


def test_mobile_emitter_breaks_reciprocity():
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=8)
    n = 41
    T = sweep_scattering(params, n, n)["T"].reshape(n, n)
    mirror = (n - np.arange(n)) % n
    assert np.abs(T - T[:, mirror]).max() > 0.1


def test_recoil_energy_reduction_region():
    # Photons near the linear band region meeting fast emitters deplete the
    # emitter motional energy.
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=8)
    for k_i, p_i in ((0.9 * math.pi, 0.5 * math.pi),
                     (-0.9 * math.pi, -0.5 * math.pi),
                     (0.85 * math.pi, 0.45 * math.pi)):
        out = scatter(params, k_i, p_i)
        de = float(xi_emitter(params, out.k_f2) - xi_emitter(params, k_i))
        assert de < 0.0
        assert not out.degenerate


def test_degenerate_velocities_flagged():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.5, L=8)
    with pytest.warns(UserWarning):
        out = scatter(params, 0.0, 0.0)
    assert out.degenerate
    assert out.t == 0.0
    assert out.r == -1.0
    assert math.isinf(out.gamma)
    # engineered equality J sin p = J' sin k away from the band edge
    with pytest.warns(UserWarning):
        out2 = scatter(params, math.pi / 2, math.asin(0.5))
    assert out2.degenerate
    # the limiting second root still conserves energy
    K = math.pi / 2 + math.asin(0.5)
    res = abs(float(omega_tilde(params, K, out2.p_f2))
              - float(omega_tilde(params, K, math.asin(0.5))))
    assert res < 1e-9


def test_decoupled_emitter_never_scatters():
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.0, L=8)
    out = scatter(params, 0.7, 1.2)
    assert out.t == 1.0
    assert out.r == 0.0
    assert not out.degenerate


def test_sweep_rejects_small_grid():
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=8)
    with pytest.raises(ParameterError):
        sweep_scattering(params, 1, 41)


def test_sweep_checks_the_budget_before_building_its_grid(monkeypatch):
    # The sweep is charged its 89-byte-a-point table and one chunk of kernel
    # work: 10^10 points exceed the 2 GiB budget, 4 * 10^6 fit in it.  The
    # grid builder is replaced so that nothing is allocated if the check came
    # late.
    def grid(n):
        raise AssertionError("grid built before the budget check")

    monkeypatch.setattr(scattering, "momentum_grid", grid)
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=8)
    with pytest.raises(SizeError, match="100000 x 100000 points"):
        sweep_scattering(params, 10**5, 10**5)
    with pytest.raises(AssertionError, match="budget check"):
        sweep_scattering(params, 2000, 2000)


@pytest.mark.parametrize("n_k, n_p", [(256, 204), (257, 203), (40, 30)])
def test_chunked_sweep_equals_one_kernel_call(n_k, n_p, caplog):
    # 256 x 204 and 257 x 203 span seven chunks, the last one ragged, and 40 x 30
    # fits in one.  At J' = J the arccos branch flips (in two chunks of the
    # first grid); the sweep logs one record with the total count.
    params = ModelParams(J=1.0, Jp=1.0, Delta=0.0, Omega=1.0, L=8)
    kk, pp = np.meshgrid(momentum_grid(n_k), momentum_grid(n_p), indexing="ij")
    ref = scattering._scatter_arrays(params, kk.ravel(), pp.ravel())
    n_flipped = int(np.count_nonzero(ref["flipped"]))
    assert n_flipped > 0
    with caplog.at_level(logging.WARNING, logger="wqed_mobile.scattering"):
        table = sweep_scattering(params, n_k, n_p)
    assert list(table) == list(scattering.SWEEP_COLUMNS)
    for name, column in table.items():
        assert column.dtype == ref[name].dtype, name
        assert np.array_equal(column, ref[name]), name
    flips = [r for r in caplog.records if "on-shell check" in r.getMessage()]
    assert len(flips) == 1
    assert f"at {n_flipped} point(s)" in flips[0].getMessage()


def test_sweep_holds_little_more_than_its_table():
    # The kernel's temporaries live for one chunk, so the sweep's peak is its
    # table plus a few MB (1.12 times the table); 1.5 fails a kernel call on
    # the whole grid, whose temporaries take 2.65 times the table.
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.5, L=8)
    sweep_scattering(params, 11, 11)
    tracemalloc.start()
    try:
        table = sweep_scattering(params, 501, 501)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(column.nbytes for column in table.values())


def _check_invariants(params, k_i, p_i, t, r, p_f2, k_f2):
    assert np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0).max() <= 1e-10
    assert np.abs(1.0 + r - t).max() <= 1e-12
    K = k_i + p_i
    energy = omega_tilde(params, K, p_i)
    on_shell = np.abs(omega_tilde(params, K, p_f2) - energy)
    assert np.all(on_shell <= 1e-10 * np.maximum(1.0, np.abs(energy)))
    assert np.abs(wrap(p_f2 + k_f2 - K)).max() <= 1e-12


_PHYSICS = dict(jp=st.floats(0.0, 2.0), delta=st.floats(-5.0, 5.0),
                omega=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))


# Fixed corners: a static emitter (J' = 0), a decoupled one (Omega = 0), and
# J' = J, where z(pi) = 0 and the effective band is flat at K = pi.  At
# J' = J, k_i = 0, p_i = 2 the arccos root is off the shell, and only the
# exact-root fallback keeps p_f2 on it.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(k_i=st.floats(-math.pi, math.pi), p_i=st.floats(-math.pi, math.pi), **_PHYSICS)
@example(k_i=0.4, p_i=1.1, jp=0.0, delta=0.3, omega=0.5)
@example(k_i=0.4, p_i=1.1, jp=0.6, delta=0.3, omega=0.0)
@example(k_i=2.0 * math.pi / 3, p_i=math.pi / 3, jp=1.0, delta=0.0, omega=0.5)
@example(k_i=-math.pi, p_i=math.pi / 3, jp=1.0, delta=0.0, omega=0.5)
@example(k_i=0.0, p_i=2.0, jp=1.0, delta=0.3, omega=0.5)
def test_scatter_invariants_property(jp, delta, omega, k_i, p_i):
    params = ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=omega, L=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the warning at a velocity degeneracy
        out = scatter(params, k_i, p_i)
    _check_invariants(params, k_i, p_i, out.t, out.r, out.p_f2, out.k_f2)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n_k=st.integers(2, 9), n_p=st.integers(2, 9), **_PHYSICS)
@example(n_k=5, n_p=7, jp=0.0, delta=0.3, omega=0.5)
@example(n_k=5, n_p=7, jp=0.6, delta=0.3, omega=0.0)
@example(n_k=2, n_p=3, jp=1.0, delta=0.0, omega=0.5)
def test_sweep_invariants_property(jp, delta, omega, n_k, n_p):
    params = ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=omega, L=8)
    table = sweep_scattering(params, n_k, n_p)
    _check_invariants(params, table["k_i"], table["p_i"], _complex_cols(table, "t"),
                      _complex_cols(table, "r"), table["p_f2"], table["k_f2"])
