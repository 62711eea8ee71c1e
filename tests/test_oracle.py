"""Oracle tests: dense diagonalization and wavepacket scattering machinery.

The Chebyshev propagator is itself validated against the block evolution,
and the measured wavepacket transmission is compared against the packet-
averaged plane-wave prediction computed from the closed-form amplitudes,
which must agree once the packets are narrow.
"""

import math
import warnings

import numpy as np
import pytest

from wqed_mobile import (
    ModelParams,
    OracleInvalid,
    band_halfwidth,
    dense_block_diagonalize,
    dense_block_eigenvalues,
    evolve_fixed_K,
    gap_energy,
    momentum_grid,
    omega_tilde,
    wavepacket_scattering_oracle,
    wrap,
)
from wqed_mobile import oracle
from wqed_mobile.errors import SizeError
from wqed_mobile.oracle import chebyshev_evolve_blocks
from wqed_mobile.scattering import _scatter_arrays


def test_dense_decoupled_spectrum_exact():
    params = ModelParams(J=1.0, Jp=0.4, Delta=0.9, Omega=0.0, L=64)
    K = 1.1
    spec = dense_block_diagonalize(params, K)
    expected = np.sort(np.append(omega_tilde(params, K, momentum_grid(64)),
                                 float(gap_energy(params, K))))
    assert np.abs(spec.eigenvalues - expected).max() < 1e-12


def test_dense_completeness_and_bound_state_count():
    # The 10/L counting margin resolves the two detached levels once their
    # band-edge offsets exceed it, i.e. for solid couplings at this L.
    rng = np.random.default_rng(30)
    for _ in range(5):
        params = ModelParams(J=1.0, Jp=rng.uniform(0.0, 0.6),
                             Delta=rng.uniform(-1.5, 1.5),
                             Omega=rng.uniform(1.2, 1.8), L=1024)
        K = rng.uniform(-math.pi, math.pi)
        spec = dense_block_diagonalize(params, K)
        assert abs(spec.weights.sum() - 1.0) < 1e-10
        b = float(band_halfwidth(params, K))
        assert spec.out_of_band_count(b, 10.0 / params.L) == 2


def test_dense_static_extremal_eigenvalues():
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=1.0, L=2000)
    ev = dense_block_eigenvalues(params, 0.0)
    ref = math.sqrt(2.0 + math.sqrt(5.0))
    assert ev[-1] == pytest.approx(ref, abs=1e-3)
    assert ev[0] == pytest.approx(-ref, abs=1e-3)


@pytest.mark.parametrize("solve", [dense_block_diagonalize, dense_block_eigenvalues])
def test_dense_blocks_check_the_budget_before_building(solve, monkeypatch):
    # Both dense entry points refuse an L whose eigensolver work exceeds the
    # 2 GiB budget (6 (L+1)(L+2) doubles: about 2.9 GiB at L = 8000) before
    # the matrix is built.
    def build(params, K):
        raise AssertionError("block built before the budget check")

    monkeypatch.setattr(oracle, "block_hamiltonian", build)
    with pytest.raises(SizeError, match="dense K-block work"):
        solve(ModelParams(J=1.0, Jp=0.5, Omega=0.2, L=8000), 0.0)
    with pytest.raises(AssertionError, match="budget check"):
        solve(ModelParams(J=1.0, Jp=0.5, Omega=0.2, L=6000), 0.0)


def test_chebyshev_matches_dense_evolution():
    # K = 0, K = pi and J' = 0 have exactly degenerate photon poles: the block
    # evolution must leave their dark states empty and spread the emission
    # evenly over each degenerate group.
    p = momentum_grid(128)
    for jp, K, t in ((0.37, 0.91, 37.5), (0.37, -2.2, 5.0), (0.37, 0.0, 80.0),
                     (0.37, math.pi, 41.0), (0.0, 0.91, 29.0), (0.0, 0.0, 63.0),
                     (0.0, math.pi, 7.5)):
        params = ModelParams(J=1.0, Jp=jp, Delta=0.8, Omega=0.6, L=128)
        traj = evolve_fixed_K(params, K, [t])
        diag = omega_tilde(params, np.array([K])[:, None], p[None, :])
        phi_t, psi_t = chebyshev_evolve_blocks(
            diag, np.array([float(gap_energy(params, K))]),
            params.Omega / math.sqrt(128.0),
            np.zeros((1, 128)), np.ones(1), t)
        assert abs(psi_t[0] - traj.psi_e[0]) < 1e-10
        assert np.abs(phi_t[0] - traj.phi[0]).max() < 1e-10


def test_chebyshev_blocks_are_independent_of_their_grouping(monkeypatch):
    # The blocks are summed a few at a time; one group of all of them must
    # give the same bits.
    from wqed_mobile import oracle

    L = 1024
    params = ModelParams(J=1.0, Jp=0.3, Delta=0.5, Omega=0.7, L=L)
    K = momentum_grid(L)[::50]
    diag = omega_tilde(params, K[:, None], momentum_grid(L)[None, :])
    rng = np.random.default_rng(3)
    phi0 = rng.normal(size=(K.size, L)) + 1j * rng.normal(size=(K.size, L))
    args = (diag, gap_energy(params, K), params.Omega / math.sqrt(L), phi0,
            rng.normal(size=K.size) + 0j, 20.0)
    assert oracle._CACHE_BYTES // (16 * L) < K.size  # the batch is split
    phi, psi = chebyshev_evolve_blocks(*args)
    monkeypatch.setattr(oracle, "_CACHE_BYTES", 16 * L * K.size)
    one_phi, one_psi = chebyshev_evolve_blocks(*args)
    assert np.array_equal(one_phi, phi) and np.array_equal(one_psi, psi)


def test_wavepacket_static_full_reflection():
    # Full reflection needs the packet well inside the resonance linewidth:
    # sigma_p << Gamma / (2 v_ph) = Omega^2 / (4 J).
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=1.0, L=1000)
    res = wavepacket_scattering_oracle(params, 0.0, math.pi / 2, 0.02, 200.0)
    assert res.transmission < 0.02
    assert res.reflection > 0.97
    assert abs(res.p_reflected + math.pi / 2) < 2 * 0.02
    assert abs(res.transmission + res.reflection - 1.0) < 1e-6


def test_wavepacket_matches_packet_averaged_amplitudes():
    # The measured branch populations must equal the Gaussian-weighted
    # average of |t|^2 / |r|^2 over the incoming packet.
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=1000)
    k0, p0, sigma = math.pi / 3, math.pi / 2, 0.04
    res = wavepacket_scattering_oracle(params, k0, p0, sigma, 170.0)
    p = momentum_grid(1000)
    w_ph = np.exp(-wrap(p - p0) ** 2 / (2 * sigma**2))
    w_qb = np.exp(-wrap(p - k0) ** 2 / (2 * sigma**2))
    ia = np.flatnonzero(w_ph > 1e-12)
    ib = np.flatnonzero(w_qb > 1e-12)
    kk, pp = np.meshgrid(p[ib], p[ia], indexing="ij")
    table = _scatter_arrays(params, kk.ravel(), pp.ravel())
    weight = np.outer(w_qb[ib], w_ph[ia]).ravel()
    t_avg = float(np.sum(weight * table["T"]) / weight.sum())
    assert res.transmission == pytest.approx(t_avg, abs=5e-3)
    assert res.reflection == pytest.approx(1.0 - t_avg, abs=5e-3)


def test_wavepacket_result_feeds_spectrum_csv(tmp_path):
    # Oracle output reuses the p,N_p table layout of the dynamics outputs.
    from wqed_mobile.cli import write_csv
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=1.0, L=256)
    res = wavepacket_scattering_oracle(params, 0.0, math.pi / 2, 0.04, 40.0)
    path = tmp_path / "oracle_np.csv"
    write_csv(str(path), ["p", "N_p"], [res.photon_momenta, res.photon_occupation])
    lines = path.read_text().splitlines()
    assert lines[0] == "p,N_p"
    assert len(lines) == 257


def test_wavepacket_validity_warnings():
    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=256)
    with pytest.warns(OracleInvalid):
        wavepacket_scattering_oracle(params, 0.5, math.pi / 2, 0.08, 30.0)
    with pytest.warns(OracleInvalid):
        wavepacket_scattering_oracle(params, 0.5, 0.05, 0.03, 30.0)
    with pytest.warns(OracleInvalid):
        wavepacket_scattering_oracle(params, 0.5, math.pi / 2, 0.03, 500.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wavepacket_scattering_oracle(params, 0.5, math.pi / 2, 0.03, 30.0)
