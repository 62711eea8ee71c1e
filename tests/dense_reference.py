"""Dense references shared by the test modules: the block's eigenvalues, the block in
long double, long-double refined emitter weights, a hypothesis strategy of (params, K)
blocks, the self-energy's slope and a bound state's momentum amplitudes in closed form,
the position observables from the whole L x L joint amplitude, the wavefront of a
position profile, phases from exact products and the pairwise scattering kernel; and a
fresh interpreter with its peak RSS."""

import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import wqed_mobile
from wqed_mobile import (ModelParams, ParameterError, band_halfwidth, gap_energy,
                         momentum_grid, omega_tilde, v_emitter, v_photon, xi_emitter, z_of_K)
from wqed_mobile.dynamics import block_hamiltonian
from wqed_mobile.model import grid_add_index

#: Source of peak(), the interpreter's own peak RSS in KiB: VmHWM, as Linux starts a
#: child's ru_maxrss at its parent's RSS at the fork; elsewhere ru_maxrss, which macOS
#: counts in bytes.
PEAK_KIB = (
    "import resource, sys\n"
    "def peak():  # KiB\n"
    "    try:\n"
    "        return int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    "    except OSError:\n"
    "        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "        return rss // 1024 if sys.platform == 'darwin' else rss\n")


def run_python(code: str, cwd, **env) -> str:
    """stdout of `code` in a fresh interpreter that imports this package and the test
    modules, with `env` added to its environment."""
    path = os.pathsep.join([str(Path(wqed_mobile.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    return subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, check=True, cwd=cwd).stdout


#: 2 pi to 40 significant digits.
_TWO_PI = decimal.Decimal("6.283185307179586476925286766559005768394")


def exact_phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i a_j b_k) over (j, k), each product taken in 40-digit decimals and reduced
    mod 2 pi there: exact to about 1e-16 rad for |a b| up to 1e20."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        bs = [decimal.Decimal(v) for v in np.asarray(b, dtype=float).tolist()]
        turns = [[float(u * v % _TWO_PI) for v in bs]
                 for u in map(decimal.Decimal, np.asarray(a, dtype=float).tolist())]
    return np.exp(-1j * np.array(turns).reshape(len(a), len(b)))


def dense_block_eigenvalues(params: ModelParams, K: float) -> np.ndarray:
    """The dense K block's eigenvalues (ascending), by numpy's eigvalsh."""
    return np.linalg.eigvalsh(block_hamiltonian(params, K))


def long_double_block(params: ModelParams, K: float) -> np.ndarray:
    """block_hamiltonian in long double, with long-double pi and cos: the exact block of
    the double K to about 1e-19, where the double block rounds every photon energy."""
    L, jp, pi = params.L, np.longdouble(params.Jp), 4 * np.arctan(np.longdouble(1))
    p, K = -pi + 2 * pi * np.arange(L, dtype=np.longdouble) / L, np.longdouble(K)
    h = np.zeros((L + 1, L + 1), dtype=np.longdouble)
    h[0, 0] = params.Delta - 2 * jp * np.cos(K)
    np.fill_diagonal(h[1:, 1:], -2 * np.longdouble(params.J) * np.cos(p) - 2 * jp * np.cos(K - p))
    h[0, 1:] = h[1:, 0] = params.Omega / np.sqrt(np.longdouble(L))
    return h


def refined_dense_weights(h, cluster):
    """Emitter weights |<K|v_n>|^2 of the block h (double or long double) from the dense
    eigh, refined by one step of Ogita & Aishima (Japan J. Ind. Appl. Math. 35, 1007
    (2018)) in long double.

    eigh alone errs by ~eps ||h|| / gap: 2e-10 for two states 8.9e-7 apart when
    a pole meets the emitter level at Omega = e^-13.  The step leaves pairs
    closer than `cluster` unmixed, so only sums over such clusters hold.
    """
    x = np.linalg.eigh(h.astype(float))[1].astype(np.longdouble)
    r = np.eye(h.shape[0], dtype=np.longdouble) - x.T @ x
    s = x.T @ h.astype(np.longdouble) @ x
    lam = np.diag(s) / (1 - np.diag(r))
    gap = lam[None, :] - lam[:, None]
    far = np.abs(gap) > cluster
    e = np.where(far, (s + lam[None, :] * r) / np.where(far, gap, 1), 0)
    np.fill_diagonal(e, np.diag(r) / 2)
    return ((x + x @ e)[0] ** 2).astype(float)


@st.composite
def blocks(draw):
    L = 2 * draw(st.integers(2, 32))
    jp = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    delta = draw(st.floats(-5.0, 5.0))
    omega = draw(st.one_of(st.just(0.0),
                           st.floats(math.log(1e-6), math.log(3.0)).map(math.exp)))
    K = draw(st.one_of(st.sampled_from((0.0, math.pi)),
                       st.integers(0, L - 1).map(lambda i: float(momentum_grid(L)[i]))))
    return ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=omega, L=L), K


def self_energy_slope(params: ModelParams, K: float, E: float) -> float:
    """dSigma/dE = -Omega^2 |E| / (E^2 - 4|z(K)|^2)^{3/2} outside the band."""
    b = float(band_halfwidth(params, K))
    return -params.Omega**2 * abs(E) / (E * E - b * b) ** 1.5


def bound_momentum_amplitudes(params: ModelParams, bound) -> np.ndarray:
    """A bound state's real photon amplitudes Omega u / sqrt(L) / (E - omega_tilde(K, p))
    on the L-point momentum grid.  E - omega_tilde = side edge_offset + 2|z| (side +
    cos(p + arg z)), the bracket in half-angle form: no cancellation where p sits on the
    band extremum."""
    L, z = params.L, complex(z_of_K(params, bound.K))
    half = 0.5 * (momentum_grid(L) + math.atan2(z.imag, z.real))
    bracket = np.cos(half) ** 2 if bound.branch > 0 else np.sin(half) ** 2
    return (params.Omega / math.sqrt(L)) * bound.u / (
        bound.branch * (bound.edge_offset + 4.0 * abs(z) * bracket))


def position_reference(run, t: float):
    """(N, P_g, P_e) on the centered sites of position_observables, from the whole joint
    amplitude B(k_g, p) = c_{k_g+p} phi_{k_g+p}(p, t), L x L, and its 2-D transforms."""
    L = run.params.L
    idx = np.arange(L)
    ksum = grid_add_index(idx[:, None], idx[None, :], L)  # index of k_g + p
    phi = run.phi[int(np.flatnonzero(run.snapshots == t)[0])]
    b_joint = run.c[ksum] * phi[ksum, idx[None, :]]
    n_photon = np.sum(np.abs(np.fft.fft(b_joint, axis=1)) ** 2, axis=0) / L
    p_ground = np.sum(np.abs(np.fft.fft(b_joint, axis=0)) ** 2, axis=1) / L
    psi_e = run.psi_e[int(np.flatnonzero(run.times == t)[0])]
    p_excited = np.abs(np.fft.fft(run.c * psi_e)) ** 2 / L
    return tuple(np.roll(v, L // 2) for v in (n_photon, p_ground, p_excited))


def wavefront_position(x: np.ndarray, profile: np.ndarray) -> int:
    """Ballistic wavefront location |x| of a symmetric position profile.

    Folds the profile onto |x|, finds the outermost local maximum above
    1e-3 of the maximum (the leading caustic lobe), and returns the outermost
    site where the profile still reaches a tenth of that lobe height.
    """
    x = np.asarray(x)
    profile = np.asarray(profile, dtype=float)
    folded = np.zeros(int(np.max(np.abs(x))) + 1)
    np.maximum.at(folded, np.abs(x), profile)
    mid = folded[1:-1]
    lobes = np.flatnonzero((mid > 1e-3 * folded.max())
                           & (mid >= folded[:-2]) & (mid >= folded[2:])) + 1
    if lobes.size == 0:
        raise ParameterError("profile has no resolvable leading lobe")
    lobe = int(lobes[-1])
    reached = np.flatnonzero(folded[lobe + 1:] >= 0.1 * folded[lobe])
    return lobe + 1 + int(reached[-1]) if reached.size else lobe


def _mod_wrap(p):
    """wrap() as np.mod wrote it before its fmod-free path."""
    w = np.mod(p, 2.0 * math.pi)
    return np.where(w > math.pi, w - 2.0 * math.pi, w)


def pairwise_scatter_arrays(params: ModelParams, k_i, p_i) -> dict:
    """The scattering kernel as it was on flat (k_i, p_i) pairs, kept frozen as the bit
    reference of the grid kernel at J = 1 (its tolerances are absolute)."""
    k_i = np.asarray(k_i, dtype=float)
    p_i = np.asarray(p_i, dtype=float)
    K = k_i + p_i
    z = z_of_K(params, K)
    with np.errstate(all="ignore"):
        absz2 = np.abs(z) ** 2
        energy = omega_tilde(params, K, p_i)
        detuning = energy - gap_energy(params, K)
        half_vdiff = params.J * np.sin(p_i) - params.Jp * np.sin(k_i)
        om2 = params.Omega**2
        degenerate = (np.abs(half_vdiff) <= 1e-12) & (om2 > 0.0)
        gamma = np.where(degenerate, math.inf, om2 / (2.0 * np.where(
            np.abs(half_vdiff) > 1e-12, half_vdiff, 1.0)))
        safe_gamma = np.where(degenerate, 0.0, gamma)
        denom = detuning + 1j * safe_gamma
        free = ~degenerate & (denom == 0.0)
        safe = np.where(degenerate | free, 1.0, denom)
        t = np.where(degenerate, 0.0 + 0.0j, np.where(free, 1.0 + 0.0j, detuning / safe))
        r = np.where(degenerate, -1.0 + 0.0j, np.where(free, 0.0j, -1j * safe_gamma / safe))
        vdiff = v_emitter(params, k_i) - v_photon(params, p_i)
        arg = np.cos(p_i) - params.Jp * np.sin(K) * vdiff / absz2
        arg = np.clip(arg, -1.0, 1.0)
        sign = np.where(absz2 * np.sin(p_i) + vdiff * np.real(z) >= 0.0, 1.0, -1.0)
    p_f2 = sign * np.arccos(arg)
    res = np.abs(omega_tilde(params, K, p_f2) - energy)
    flip = res > 1e-10 * np.maximum(1.0, np.abs(energy))
    exact = degenerate | flip
    p_f2 = _mod_wrap(p_f2)
    p_f2[exact] = _mod_wrap(-p_i[exact] - 2.0 * np.angle(z[exact]))
    k_f2 = _mod_wrap(K - p_f2)
    return {
        "t_re": t.real, "t_im": t.imag, "r_re": r.real, "r_im": r.imag,
        "T": np.abs(t) ** 2, "R": np.abs(r) ** 2, "p_f2": p_f2, "k_f2": k_f2,
        "dE_qb": xi_emitter(params, k_f2) - xi_emitter(params, k_i),
        "degenerate": degenerate, "detuning": detuning, "gamma": gamma,
        "flipped": flip & ~degenerate,
    }
