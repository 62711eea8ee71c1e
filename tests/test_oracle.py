"""Oracle tests: dense diagonalization and wavepacket scattering machinery.

The Chebyshev propagator is itself validated against the block evolution,
and the measured wavepacket transmission is compared against the packet-
averaged plane-wave prediction computed from the closed-form amplitudes,
which must agree once the packets are narrow.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings

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
from wqed_mobile import errors, oracle
from wqed_mobile.dynamics import block_hamiltonian
from wqed_mobile.errors import SizeError
from wqed_mobile.model import grid_sub_index
from wqed_mobile.oracle import _bessel_j, _lattice_tridiagonal, chebyshev_evolve_blocks
from wqed_mobile.scattering import _scatter_grid

from dense_reference import (PEAK_KIB, blocks, dense_block_eigenvalues, long_double_block,
                             refined_dense_weights, run_python)


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


def test_dense_blocks_check_the_budget_before_building(monkeypatch):
    # The call charges (L+1)(64 + 16) doubles, the panel of 64 eigenvectors that a dstein
    # fallback may take and O(L) arrays (the recurrence's among them), so it refuses an L
    # past the 2 GiB limit (L = 3,355,442) before it builds the path.
    def build(params, K):
        raise AssertionError("path built before the budget check")

    monkeypatch.setattr(oracle, "_lattice_tridiagonal", build)
    with pytest.raises(SizeError, match="dense K-block work"):
        dense_block_diagonalize(ModelParams(J=1.0, Jp=0.5, Omega=0.2, L=3_355_444), 0.0)
    with pytest.raises(AssertionError, match="budget check"):
        dense_block_diagonalize(ModelParams(J=1.0, Jp=0.5, Omega=0.2, L=3_355_442), 0.0)


def test_dense_solve_runs_in_place(tmp_path):
    # The call forms no (L+1)^2 array: the recurrence's O(L) arrays, and 64 eigenvectors
    # at a time where it falls back to dstein, stay below 0.1 block of (L+1)^2 doubles at
    # L = 2000; 0.2 fails any solve that builds the block (the reduction of the block in
    # place took about 1.04).
    # A fresh process sees the rise alone; the warm-up loads scipy and LAPACK.  It reads
    # its own peak, VmHWM: Linux's ru_maxrss starts at the parent's RSS at the fork, so
    # behind a large pytest process the rise read 0 even for a solve that built the block.
    code = (
        PEAK_KIB +
        "from wqed_mobile import ModelParams, dense_block_diagonalize\n"
        "def solve(L):\n"
        "    dense_block_diagonalize(ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2,"
        " L=L), 0.3)\n"
        "solve(8)\n"
        "before = peak()\n"
        "solve(2000)\n"
        "print(peak() - before)\n")
    rise_bytes = 1024 * int(run_python(code, tmp_path).split()[-1])
    assert rise_bytes < 0.2 * 8 * 2001**2


@pytest.mark.parametrize("L, jp", [(4, 0.5), (6, 0.5), (64, 0.5), (200, 0.5), (64, 1.7),
                                   (200, 1.7)])
def test_lattice_path_is_the_blocks_reduction(L, jp):
    # dsytrd of the momentum block starts at the emitter, as the path does, so by the
    # implicit-Q theorem it gives the path's bonds up to sign and a zero diagonal past
    # the emitter.  Near a split the rounded block's tridiagonal is ill-determined: past
    # site h it moves by about 7e-14 max|h| / min(|cos h phi|, |sin h phi|) (8e-12 at
    # L = 200, J' = 0.5, K = 0.094).  So the check runs at every grid K but 0 and pi, and
    # at K = 0.7 off the grid, where both twist bonds are at least half of sqrt(2) b.
    from scipy.linalg import lapack

    params, h = ModelParams(J=1.0, Jp=jp, Delta=0.4, Omega=0.6, L=L), L // 2
    lwork, _ = lapack.dsytrd_lwork(L + 1, lower=1)
    checked = 0
    for K in [*momentum_grid(L)[1:], 0.7]:
        d, e = _lattice_tridiagonal(params, K)
        if K == 0.0 or min(e[h], e[h + 1]) < 0.5 * e[1]:
            continue
        block = block_hamiltonian(params, K)
        _, d_ref, e_ref, _, info = lapack.dsytrd(block.T.copy(), lower=1, lwork=int(lwork))
        assert info == 0 and d[0] == d_ref[0] and not d[1:].any()
        tol = 1e-13 * np.abs(block).max()
        assert np.abs(np.abs(e_ref) - e).max() <= tol and np.abs(d_ref[1:]).max() <= tol
        checked += 1
    assert checked


_SYEVD_CASES = [
    (ModelParams(J=1.0, Jp=0.4, Delta=0.9, Omega=0.7, L=64), 1.1),
    # J' = 0: exactly degenerate photon pairs; K = 0 and K = pi: merged rings.
    (ModelParams(J=1.0, Jp=0.0, Delta=0.3, Omega=0.5, L=64), 0.7),
    (ModelParams(J=1.0, Jp=0.5, Delta=-3.0, Omega=1.0, L=64), 0.0),
    (ModelParams(J=1.0, Jp=0.5, Delta=3.0, Omega=0.2, L=64), math.pi),
    # Weak couplings, where the emitter row is the smaller of the first two.
    (ModelParams(J=1.0, Jp=0.5, Delta=0.3, Omega=1e-8, L=64), 0.7),
    (ModelParams(J=1.0, Jp=0.5, Delta=0.3, Omega=1e-12, L=64), 0.7),
]


@pytest.mark.parametrize("params, K", _SYEVD_CASES)
def test_dense_solve_matches_syevd(params, K):
    # dsterf's eigenvalues and the emitter row against syevd's.  The recurrence certifies
    # every weight of the first three blocks and all but 4 at K = pi; the weak couplings
    # send 61 and 64 of their 65 weights to dstein.
    from scipy.linalg import eigh

    h = block_hamiltonian(params, K)
    spec = dense_block_diagonalize(params, K)
    energy, vectors = eigh(h, driver="evd")
    assert np.abs(spec.eigenvalues - energy).max() <= 1e-13 * np.abs(h).max()
    assert np.abs(spec.weights - vectors[0] ** 2).max() <= 1e-12


def test_dense_weights_at_the_emitter_pole_resonance():
    # The emitter level on a pole pair, two states 8.9e-7 apart, where syevd's
    # weights are 2.0e-10 off: the path is the exact block, so its cluster sums
    # hold to 1e-12 of the long-double block's refined weights.  They are 9.0e-14
    # apart; against a 40-digit eigsy the path is 1.7e-16 off, that reference 9.0e-14.
    params, K = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=math.exp(-13), L=52), 0.0
    spec = dense_block_diagonalize(params, K)
    h = block_hamiltonian(params, K)
    assert np.abs(spec.eigenvalues - np.linalg.eigvalsh(h)).max() <= 1e-13 * np.abs(h).max()
    cuts = np.r_[0, np.flatnonzero(np.diff(spec.eigenvalues) > 1e-9) + 1]
    assert np.abs(np.add.reduceat(spec.weights, cuts)
                  - np.add.reduceat(refined_dense_weights(long_double_block(params, K), 1e-9),
                                    cuts)).max() <= 1e-12


def test_dense_weights_without_coupling():
    # Omega = 0 splits the emitter off: one weight is exactly 1, at the emitter
    # level, and every other exactly 0.
    params = ModelParams(J=1.0, Jp=0.3, Delta=0.4, Omega=0.0, L=64)
    spec = dense_block_diagonalize(params, 0.9)
    assert np.count_nonzero(spec.weights) == 1 and spec.weights.sum() == 1.0
    assert spec.eigenvalues[np.argmax(spec.weights)] == gap_energy(params, 0.9)


def test_dense_dark_states_weigh_nothing():
    # J' = 0: photon pairs p, -p are exactly degenerate, so the emitter reaches
    # only the L/2 + 1 distinct photon energies; the path splits there, so the
    # L/2 - 1 dark states weigh exactly 0.
    spec = dense_block_diagonalize(ModelParams(J=1.0, Jp=0.0, Delta=0.3, Omega=0.5, L=64), 0.7)
    weights = np.sort(spec.weights)
    assert not weights[:64 // 2 - 1].any() and weights[64 // 2 - 1] > 1e-6
    assert abs(weights.sum() - 1.0) <= 1e-14


@settings(derandomize=True, max_examples=120, deadline=None)
@given(block=blocks())
# The engine test's near-degenerate blocks: the emitter level on a pole pair,
# pole families closer than their rounded energies resolve (K next to 0, J'
# next to J), and photon pairs 1e-12 apart at J' = J + 1e-12.
@example(block=(ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=math.exp(-13.0), L=52), 0.0))
@example(block=(ModelParams(J=1.0, Jp=0.0146, Delta=-0.645, Omega=1e-6, L=42), 1e-12))
@example(block=(ModelParams(J=1.0, Jp=1 - 1e-12, Delta=2.0, Omega=1e-9, L=20), -math.pi / 2))
@example(block=(ModelParams(J=1.0, Jp=1 - 1e-12, Delta=-2.0, Omega=1e-9, L=22),
                math.pi - 1e-12))
@example(block=(ModelParams(J=1.0, Jp=1.000000000001, Delta=0.0, Omega=1.0, L=4), -math.pi / 2))
# A cluster across dstein's first panel boundary: cut at index 64 instead of
# at the widest gap, its weights summed to 1 + 1.4e-7.
@example(block=(ModelParams(J=1.0, Jp=1 - 1e-12, Delta=2.0, Omega=1e-9, L=170), -math.pi / 2))
# A subnormal twist bond (phi = 1e-311), on which dstein lost 3.8e-3 of the weights.
@example(block=(ModelParams(J=1.0, Jp=2.225073858507e-311, Delta=0.3, Omega=0.5, L=64),
                1.3744467859455343))
# A subnormal K, where arg z(K) underflows: cmath.phase raised OverflowError there.
@example(block=(ModelParams(J=1.0, Jp=1.0, Delta=0.0, Omega=0.5, L=4), 5e-324))
# A coupling so weak that S = 1 to rounding at a band state: its Newton step lands on
# the emitter's root, where an unchecked weight reads 1.0 for a state that weighs 1e-42.
@example(block=(ModelParams(J=1.0, Jp=0.5, Delta=0.3, Omega=1e-20, L=64), 0.7))
# A Newton step that is small against the gap but lands beside the root: an unchecked
# second step left two weights of 1.0 where they are 8e-27 and 2e-26.
@example(block=(ModelParams(J=1.0, Jp=1.7138930636191507, Delta=3.310462646917536,
                            Omega=1.0336945316576508e-12, L=62), -0.20268339700579308))
def test_dense_weights_sum_to_one_property(block):
    # Every weight is finite and in [0, 1], they sum to 1, no step warns, and
    # the sums over clusters closer than 1e-9 match the refined weights of the
    # long-double block to 1e-12.  The path's entries are doubles, so its weights
    # err by up to about eps ||h|| / gap: draws outside this fixed set reach
    # 1.2e-11 (the emitter on a pole pair at J' = J, K = 0, Omega = 1.4e-6, L = 36).
    params, K = block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = dense_block_diagonalize(params, K)
    weights = spec.weights
    assert np.all(np.isfinite(weights)) and weights.min() >= 0.0 and weights.max() <= 1.0
    assert abs(weights.sum() - 1.0) <= 1e-12
    cuts = np.r_[0, np.flatnonzero(np.diff(spec.eigenvalues) > 1e-9) + 1]
    assert np.abs(np.add.reduceat(weights, cuts)
                  - np.add.reduceat(refined_dense_weights(long_double_block(params, K), 1e-9),
                                    cuts)).max() <= 1e-12


def test_dense_bulk_block_weights_need_no_dstein(monkeypatch):
    # The benchmark's L = 2000 block at K = pi/3: the recurrence certifies every weight,
    # so no dstein call is made, and the weights are dstein's on the same eigenvalues to
    # 2e-14.
    from scipy.linalg import lapack

    params, K = ModelParams(J=1.0, Jp=0.5, Delta=3.0, Omega=0.2, L=2000), math.pi / 3
    d, e = _lattice_tridiagonal(params, K)
    calls, dstein = [], lapack.dstein

    def counted(*args):
        calls.append(args)
        return dstein(*args)

    monkeypatch.setattr(lapack, "dstein", counted)
    spec = dense_block_diagonalize(params, K)
    monkeypatch.undo()
    assert not calls
    reference = oracle._row0_weights(lapack, d, e, spec.eigenvalues)
    assert np.abs(spec.weights - reference).max() <= 2e-14


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
    assert run_python(code, tmp_path).splitlines()[-1] == "[]"


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


def test_wavepacket_blocks_equal_the_full_construction(monkeypatch):
    # The oracle sums the block weights a panel of K rows at a time and builds
    # only the kept blocks: the same bits as the whole L x L product.
    packets, started, gaussian = [], [], oracle._gaussian_packet

    def packet(*args):
        packets.append(gaussian(*args))
        return packets[-1]

    def evolve(diag, e_gap, coupling, phi0, psi_e0, t):
        started.append(phi0.copy())
        return chebyshev_evolve_blocks(diag, e_gap, coupling, phi0, psi_e0, t)

    monkeypatch.setattr(oracle, "_gaussian_packet", packet)
    monkeypatch.setattr(oracle, "chebyshev_evolve_blocks", evolve)
    L = 200
    assert oracle._CACHE_BYTES // (16 * L) < L  # more than one panel
    res = wavepacket_scattering_oracle(ModelParams(J=1.0, Jp=0.1, Omega=0.5, L=L),
                                       0.5, math.pi / 2, 0.03, 20.0)
    a_ph, b_qb = packets
    m = np.arange(L)
    amp = a_ph[None, :] * b_qb[grid_sub_index(m[:, None], m[None, :], L)]
    block_w = np.sum(np.abs(amp) ** 2, axis=1)
    phi0 = amp[np.flatnonzero(block_w > 1e-16 * block_w.max())]
    phi0 /= math.sqrt(float(np.sum(np.abs(phi0) ** 2)))
    assert res.n_blocks == phi0.shape[0] < L
    assert np.array_equal(started[0], phi0)


def test_wavepacket_checks_the_budget_before_evolving(monkeypatch):
    # The call charges 48 bytes a kept (K, p): phi0 and phi_t (complex), diag and
    # |phi_t|, the peak that tracemalloc sees (48.2-48.4 bytes at L = 1000-2000).  At
    # L = 20,000 and sigma_p = 0.05 that is 3.7 GB, past the 2 GiB limit.
    def evolve(*args):
        raise AssertionError("blocks evolved before the budget check")

    params = ModelParams(J=1.0, Jp=0.1, Omega=0.5, L=1000)
    tracemalloc.start()
    try:
        res = wavepacket_scattering_oracle(params, 0.5, math.pi / 2, 0.05, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = 48 * res.n_blocks * params.L
    assert need <= peak <= 1.05 * need
    monkeypatch.setattr(oracle, "chebyshev_evolve_blocks", evolve)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(SizeError, match=f"{res.n_blocks} wavepacket blocks"):
        wavepacket_scattering_oracle(params, 0.5, math.pi / 2, 0.05, 20.0)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", need)
    with pytest.raises(AssertionError, match="budget check"):
        wavepacket_scattering_oracle(params, 0.5, math.pi / 2, 0.05, 20.0)


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
    table = _scatter_grid(params, p[ib], p[ia])
    weight = np.outer(w_qb[ib], w_ph[ia])
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
