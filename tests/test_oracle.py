"""Oracle tests: dense diagonalization and wavepacket scattering machinery.

The Chebyshev propagator is itself validated against the block evolution,
and the measured wavepacket transmission is compared against the packet-
averaged plane-wave prediction computed from the closed-form amplitudes,
which must agree once the packets are narrow.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wqed_mobile import (
    ModelParams,
    OracleInvalid,
    band_halfwidth,
    dense_block_diagonalize,
    evolve_fixed_K,
    gap_energy,
    momentum_grid,
    omega_tilde,
    wavepacket_scattering_oracle,
    wrap,
)
from wqed_mobile import oracle
from wqed_mobile.dynamics import block_hamiltonian
from wqed_mobile.errors import SizeError
from wqed_mobile.oracle import _bessel_j, _dense_block, chebyshev_evolve_blocks
from wqed_mobile.scattering import _scatter_arrays


def dense_block_eigenvalues(params: ModelParams, K: float) -> np.ndarray:
    """The dense K block's eigenvalues (ascending), by numpy's eigvalsh."""
    return np.linalg.eigvalsh(_dense_block(params, K))


def _run_python(code: str, cwd) -> str:
    """stdout of `code` in a fresh interpreter that imports this package."""
    src = str(Path(oracle.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, cwd=cwd).stdout


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
        assert np.count_nonzero(np.abs(spec.eigenvalues) > b + 10.0 / params.L) == 2


def test_dense_static_extremal_eigenvalues():
    params = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=1.0, L=2000)
    ev = dense_block_eigenvalues(params, 0.0)
    ref = math.sqrt(2.0 + math.sqrt(5.0))
    assert ev[-1] == pytest.approx(ref, abs=1e-3)
    assert ev[0] == pytest.approx(-ref, abs=1e-3)


@pytest.mark.parametrize("solve", [dense_block_diagonalize, dense_block_eigenvalues])
def test_dense_blocks_check_the_budget_before_building(solve, monkeypatch):
    # Both dense solves refuse an L whose work exceeds the 2 GiB budget
    # (2 (L+1)(L+5) doubles: the limit is L = 11,582) before the matrix is
    # built.
    def build(params, K):
        raise AssertionError("block built before the budget check")

    monkeypatch.setattr(oracle, "block_hamiltonian", build)
    with pytest.raises(SizeError, match="dense K-block work"):
        solve(ModelParams(J=1.0, Jp=0.5, Omega=0.2, L=11_600), 0.0)
    with pytest.raises(AssertionError, match="budget check"):
        solve(ModelParams(J=1.0, Jp=0.5, Omega=0.2, L=11_500), 0.0)


def test_dense_solve_runs_in_place(tmp_path):
    # dsytrd reduces the block in place and the block is freed before dstevd
    # writes its eigenvectors and workspace: at L = 2000 the call raises the
    # peak RSS by about 2.25 blocks of (L+1)^2 doubles; 2.6 fails syevd in
    # place (about 3.25) and any solve that copies the block.  A fresh
    # process sees the rise alone; the warm-up loads scipy and LAPACK.
    code = (
        "import resource, sys\n"
        "from wqed_mobile import ModelParams, dense_block_diagonalize\n"
        "def solve(L):\n"
        "    dense_block_diagonalize(ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2,"
        " L=L), 0.3)\n"
        "solve(8)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "solve(2000)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    rise_bytes = 1024 * int(_run_python(code, tmp_path).split()[-1])  # ru_maxrss is in KiB
    assert rise_bytes < 2.6 * 8 * 2001**2


@pytest.mark.parametrize("params, K", [
    (ModelParams(J=1.0, Jp=0.4, Delta=0.9, Omega=0.7, L=64), 1.1),
    # J' = 0: exactly degenerate photon pairs; K = 0 and K = pi: merged rings.
    (ModelParams(J=1.0, Jp=0.0, Delta=0.3, Omega=0.5, L=64), 0.7),
    (ModelParams(J=1.0, Jp=0.5, Delta=-3.0, Omega=1.0, L=64), 0.0),
    (ModelParams(J=1.0, Jp=0.5, Delta=3.0, Omega=0.2, L=64), math.pi),
    # The emitter level on a pole pair, two states 8.9e-7 apart.
    (ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=math.exp(-13), L=52), 0.0),
])
def test_dense_solve_equals_syevd_bit_for_bit(params, K):
    # The reflectors of the tridiagonal reduction leave the emitter row alone,
    # so dstevd's eigenvalues and row 0 are those of the full syevd solve.
    from scipy.linalg import eigh

    spec = dense_block_diagonalize(params, K)
    energy, vectors = eigh(block_hamiltonian(params, K), driver="evd")
    assert np.array_equal(spec.eigenvalues, energy)
    assert np.array_equal(spec.weights, vectors[0] ** 2)


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-8, 0.1, 1.0, 30.0, 560.0, 1400.0])
def test_bessel_coefficients_match_scipy(x):
    # Miller's recurrence against scipy's jv up to the order the Chebyshev sum
    # would ask for at this b t; at x = 0 only J_0 = 1 remains, exactly.
    from scipy.special import jv

    n = int(x + 14.0 * (x + 20.0) ** (1.0 / 3.0) + 25.0)
    bessel = _bessel_j(n, x)
    assert bessel.shape == (n + 1,)
    assert np.abs(bessel - jv(np.arange(n + 1), x)).max() <= 5e-14
    if x == 0.0:
        assert bessel[0] == 1.0 and not bessel[1:].any()


def test_wavepacket_oracle_loads_no_scipy_special(tmp_path):
    code = (
        "import math, sys\n"
        "from wqed_mobile import ModelParams, wavepacket_scattering_oracle\n"
        "wavepacket_scattering_oracle(ModelParams(J=1.0, Jp=0.1, Omega=0.5, L=200),"
        " 0.5, math.pi / 2, 0.03, 20.0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n")
    assert _run_python(code, tmp_path).splitlines()[-1] == "[]"


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
