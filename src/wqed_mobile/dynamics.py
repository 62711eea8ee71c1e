"""Time evolution in the single-excitation sector.

Total momentum is conserved, so the dynamics splits into independent
(L+1) x (L+1) blocks, one per total momentum K: the excited emitter |K> at
energy E_{K,Delta} coupled with strength Omega/sqrt(L) to the L hybrid
photon+recoil modes |p>_K at energies omega_tilde(K, p).  Each block is
evolved exactly through one dense real-symmetric eigendecomposition, so
every requested time carries no integrator error.

An emitter localized at site x0 is the uniform superposition
c_K = e^{i K x0} / sqrt(L) of block ground states; position-space
observables are assembled from the per-block trajectories with discrete
Fourier transforms on the (L-even, hence closed) momentum grid.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandEdgeSingularity,
    NotEmbedded,
    ParameterError,
    check_memory,
)
from .model import (
    ModelParams,
    band_halfwidth,
    gap_energy,
    grid_add_index,
    momentum_grid,
    omega_tilde,
    wrap,
    z_of_K,
)


def resolve_threads(requested: int | None = None) -> int:
    """The --threads request capped by WQED_THREADS; the CLI validates and echoes
    it, but K blocks evolve in one loop and only BLAS threads run."""
    n = requested if requested else (os.cpu_count() or 1)
    cap = os.environ.get("WQED_THREADS")
    if cap:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ParameterError(f"WQED_THREADS={cap!r} is not an integer") from None
    return max(1, n)


def block_hamiltonian(params: ModelParams, K: float) -> np.ndarray:
    """Dense real-symmetric block at total momentum K.

    Index 0 is the excited emitter |K>; indices 1..L are the photon modes
    |p_n>_K in momentum_grid order.
    """
    L = params.L
    h = np.zeros((L + 1, L + 1))
    h[0, 0] = gap_energy(params, K)
    np.fill_diagonal(h[1:, 1:], omega_tilde(params, K, momentum_grid(L)))
    h[0, 1:] = h[1:, 0] = params.Omega / math.sqrt(L)
    return h


def _time_index(times: np.ndarray, t: float) -> int:
    """Index of the sampled time t in a trajectory's `times`."""
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-12 * max(1.0, abs(t)):
        raise ParameterError(f"t = {t!r} is not one of the sampled times")
    return i


def _check_block_budget(L: int, n_blocks: int, n_times: int):
    # One block's eigh working set plus all stored trajectories.
    check_memory(3 * (L + 1) ** 2 * 8 + n_blocks * n_times * (L + 1) * 16,
                 "dense K-block work", "reduce L or the sample count")


@dataclass(frozen=True)
class KBlockState:
    """State of one K block: excited amplitude and photon amplitudes."""

    K: float
    psi_e: complex
    phi: np.ndarray


@dataclass(frozen=True)
class KBlockTrajectory:
    """Exact block evolution sampled at `times` (psi_e: (nt,), phi: (nt, L))."""

    K: float
    times: np.ndarray
    psi_e: np.ndarray
    phi: np.ndarray

    def state_at(self, t: float) -> KBlockState:
        i = _time_index(self.times, t)
        return KBlockState(K=self.K, psi_e=complex(self.psi_e[i]), phi=self.phi[i])

    def norms(self) -> np.ndarray:
        return np.abs(self.psi_e) ** 2 + np.sum(np.abs(self.phi) ** 2, axis=1)


def _evolve_block(h: np.ndarray, v0: np.ndarray, times: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i h t) v0 at every t via one symmetric eigendecomposition."""
    w, v = np.linalg.eigh(h)
    c = v.T @ v0
    amps = v @ (c[:, None] * np.exp(-1j * np.outer(w, times)))
    return amps[0, :], amps[1:, :].T


def _checked_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1-D array")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ParameterError("times must be sorted and nonnegative")
    return times


def evolve_fixed_K(params: ModelParams, K: float, times,
                   psi_e0: complex = 1.0, phi0: np.ndarray | None = None
                   ) -> KBlockTrajectory:
    """Evolve one K block exactly; default initial state is the excited emitter."""
    times = _checked_times(times)
    _check_block_budget(params.L, 1, times.size)
    v0 = np.zeros(params.L + 1, dtype=complex)
    v0[0] = psi_e0
    if phi0 is not None:
        v0[1:] = phi0
    psi_e, phi = _evolve_block(block_hamiltonian(params, K), v0, times)
    return KBlockTrajectory(K=float(K), times=times, psi_e=psi_e, phi=phi)


def photon_spectrum_and_directionality(traj: KBlockTrajectory, t: float
                                       ) -> tuple[np.ndarray, float | None]:
    """Photon occupation N_p = |phi_K(p, t)|^2 and the emission imbalance.

    D = (sum_{p>0} N_p - sum_{p<0} N_p) / (total emitted photon number);
    the parity-even grid points p = 0 and p = -pi (its own mirror mod 2*pi)
    are left out of the directional sums.  Returns D = None when nothing has
    been emitted.
    """
    i = _time_index(traj.times, t)
    n_p = np.abs(traj.phi[i]) ** 2
    total = float(n_p.sum())
    if total == 0.0:
        return n_p, None
    p = momentum_grid(n_p.size)
    pos = p > 1e-12
    neg = (p < -1e-12) & (p > -math.pi + 1e-12)
    return n_p, float((n_p[pos].sum() - n_p[neg].sum()) / total)


def spectrum_peaks(p: np.ndarray, n_p: np.ndarray, n_peaks: int = 2) -> list[float]:
    """Momenta of the n_peaks tallest circular local maxima of N_p."""
    up = n_p > np.roll(n_p, 1)
    down = n_p >= np.roll(n_p, -1)
    idx = np.flatnonzero(up & down)
    idx = idx[np.argsort(n_p[idx])[::-1]]
    return [float(p[i]) for i in idx[:n_peaks]]


def asymptotic_momenta(params: ModelParams, K: float) -> tuple[float, float] | None:
    """Long-time emitted photon momenta (p_+, p_-) at fixed K, or None out of band.

    The on-shell condition E_{K,Delta} = -2|z(K)| cos(p + arg z) has the two
    roots p_+ = -alpha - arg z and p_- = alpha - arg z with
    alpha = arccos(-E/2|z|) in [0, pi]; the labels are continuous (mod 2 pi)
    in (Delta, J', K) wherever the emitter level is embedded.
    """
    e = float(gap_energy(params, K))
    z = complex(z_of_K(params, K))
    b = 2.0 * abs(z)
    if abs(e) > b:
        return None
    alpha = math.acos(max(-1.0, min(1.0, -e / b)))
    phi = np.angle(z)
    return wrap(-alpha - phi), wrap(alpha - phi)


def markov_rate(params: ModelParams, K: float) -> float:
    """Weak-coupling decay rate of |psi_eK|^2, given by the effective-band
    density of states at the emitter energy:

        Gamma_K = 2 Omega^2 / sqrt(4|z(K)|^2 - E_{K,Delta}^2).
    """
    e = float(gap_energy(params, K))
    b = float(band_halfwidth(params, K))
    if abs(e) == b:
        raise BandEdgeSingularity(f"Markov rate diverges at the band edge |E| = {b!r}")
    if abs(e) > b:
        raise NotEmbedded(
            f"E_(K,Delta) = {e!r} lies outside the band (half-width {b!r}); "
            "the emitter does not decay"
        )
    return 2.0 * params.Omega**2 / math.sqrt((b - e) * (b + e))


def fit_exponential_rate(times: np.ndarray, values: np.ndarray,
                         t_lo: float, t_hi: float) -> float:
    """Decay rate from a linear fit of log(values) on [t_lo, t_hi]."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    m = (times >= t_lo) & (times <= t_hi) & (values > 0)
    if np.count_nonzero(m) < 2:
        raise ParameterError("fit window contains fewer than two usable samples")
    slope, _ = np.polyfit(times[m], np.log(values[m]), 1)
    return float(-slope)


# ---------------------------------------------------------------------------
# K-selective emission windows


@dataclass(frozen=True)
class EmissionWindows:
    """Embedded-momentum classification for one (Delta, J') pair.

    windows are the connected components of {K in [-pi, pi] :
    |E_{K,Delta}| <= 2|z(K)|} (wrap-around components are reported split at
    +-pi).  w_plus is the positive-K extent of a window centered at K = 0;
    w_minus the width of a window detached from K = 0.  jc_minus / jc_plus
    are the exact critical emitter hoppings at which a window first opens as
    J' grows (endpoint collision of the embedding condition), and the
    *_approx fields the small-J' closed forms sqrt(-Delta J - 2 J^2) and
    Delta/4 - J/2.
    """

    regime: str
    windows: tuple[tuple[float, float], ...]
    w_plus: float | None
    w_minus: float | None
    jc_plus: float
    jc_minus: float
    jc_plus_approx: float
    jc_minus_approx: float
    embedded_fraction: float


def _embedding_margin(params: ModelParams, K):
    return band_halfwidth(params, K) - np.abs(gap_energy(params, K))


def critical_jp_upper(J: float, delta: float) -> float:
    """Exact J' above which an embedded window opens near K = 0 (Delta > 2J).

    At K = 0 the condition Delta - 2J' <= 2(J + J') is exact and the margin
    is monotone in cos K, so the window opens first at K = 0."""
    return (delta - 2.0 * J) / 4.0 if delta >= 2.0 * J else math.nan


def critical_jp_lower(J: float, delta: float) -> float:
    """Exact J' above which an embedded window opens near K = +-pi/2
    (Delta < -2J).

    The embedding margin is maximal at cos K = -J'/(2J) where |z| = J, giving
    the threshold sqrt(-J(Delta + 2J)); if that maximum leaves [-1, 1]
    (J' > 2J) the margin is maximal at K = pi instead."""
    if delta > -2.0 * J:
        return math.nan
    d2 = -J * (delta + 2.0 * J)
    if d2 <= 4.0 * J * J:
        return math.sqrt(d2)
    return (2.0 * J - delta) / 4.0


def classify_regime_and_windows(params: ModelParams, n_scan: int = 4001,
                                k_tol: float = 1e-8) -> EmissionWindows:
    """Embedded set of momenta, window widths, and critical couplings.

    The exact condition |E_{K,Delta}| <= 2|z(K)| is scanned on [0, pi] (the
    margin is even in K), each boundary is refined by bisection to k_tol,
    and the components are mirrored to negative K.
    """
    ks = np.linspace(0.0, math.pi, n_scan)
    margin = _embedding_margin(params, ks)
    inside = margin >= 0.0

    def refine(k_out: float, k_in: float) -> float:
        # margin < 0 at k_out, >= 0 at k_in
        for _ in range(200):
            if abs(k_in - k_out) < k_tol:
                break
            mid = 0.5 * (k_out + k_in)
            if _embedding_margin(params, mid) >= 0.0:
                k_in = mid
            else:
                k_out = mid
        return 0.5 * (k_out + k_in)

    # Runs of embedded scan points, from the first to the last index of each.
    steps = np.diff(np.concatenate(([0], inside.astype(int), [0])))
    half = [(ks[i] if i == 0 else refine(ks[i - 1], ks[i]),
             ks[j] if j == n_scan - 1 else refine(ks[j + 1], ks[j]))
            for i, j in zip(np.flatnonzero(steps > 0), np.flatnonzero(steps < 0) - 1)]

    windows: list[tuple[float, float]] = []
    for lo, hi in half:
        if lo == 0.0:
            windows.append((-hi, hi))
        else:
            windows.append((-hi, -lo))
            windows.append((lo, hi))
    windows.sort()

    fraction = sum(hi - lo for lo, hi in half) / math.pi

    if not half:
        regime = "none"
    elif len(half) == 1 and half[0][0] == 0.0 and half[0][1] == math.pi:
        regime = "all"
    else:
        regime = "selective"

    w_plus = w_minus = None
    for lo, hi in half:
        if lo == 0.0 and hi < math.pi:
            w_plus = hi
        if lo > 0.0:
            w_minus = hi - lo
            break

    return EmissionWindows(
        regime=regime,
        windows=tuple(windows),
        w_plus=w_plus,
        w_minus=w_minus,
        jc_plus=critical_jp_upper(params.J, params.Delta),
        jc_minus=critical_jp_lower(params.J, params.Delta),
        jc_plus_approx=(params.Delta / 4.0 - params.J / 2.0),
        jc_minus_approx=(
            math.sqrt(-params.Delta * params.J - 2.0 * params.J**2)
            if -params.Delta * params.J - 2.0 * params.J**2 >= 0.0 else math.nan
        ),
        embedded_fraction=fraction,
    )


# ---------------------------------------------------------------------------
# Localized-emitter runs and position-space observables


@dataclass(frozen=True)
class LocalizedRun:
    """All K-block trajectories of an emitter initially excited at site x0.

    c[m] = e^{i K_m x0} / sqrt(L) are the momentum amplitudes; psi_e has
    shape (nt, L) over (time, K) and phi (nt, L, L) over (time, K, p).
    """

    params: ModelParams
    x0: int
    times: np.ndarray
    c: np.ndarray
    psi_e: np.ndarray
    phi: np.ndarray

    def block_trajectory(self, m: int) -> KBlockTrajectory:
        """Trajectory of the m-th momentum block (unit initial excitation)."""
        kgrid = momentum_grid(self.params.L)
        return KBlockTrajectory(K=float(kgrid[m]), times=self.times,
                                psi_e=self.psi_e[:, m], phi=self.phi[:, m, :])

    def pe_total(self) -> np.ndarray:
        """Total excited-state population at every sampled time."""
        return np.sum(np.abs(self.c[None, :]) ** 2 * np.abs(self.psi_e) ** 2, axis=1)

    def total_norm(self) -> np.ndarray:
        pops = np.abs(self.psi_e) ** 2 + np.sum(np.abs(self.phi) ** 2, axis=2)
        return np.sum(np.abs(self.c[None, :]) ** 2 * pops, axis=1)


def evolve_localized(params: ModelParams, x0: int, times) -> LocalizedRun:
    """Evolve every K block for an emitter initially excited at site x0."""
    times = _checked_times(times)
    L = params.L
    _check_block_budget(L, L, times.size)
    kgrid = momentum_grid(L)
    c = np.exp(1j * kgrid * x0) / math.sqrt(L)

    v0 = np.zeros(L + 1, dtype=complex)
    v0[0] = 1.0
    psi_e = np.empty((times.size, L), dtype=complex)
    phi = np.empty((times.size, L, L), dtype=complex)
    for m, K in enumerate(kgrid):
        # pe, ph stay alive while the next block runs, so glibc does not trim the
        # heap and re-fault eigh's workspace every block (~1,500 faults at L = 400).
        pe, ph = _evolve_block(block_hamiltonian(params, K), v0, times)
        psi_e[:, m], phi[:, m, :] = pe, ph
    return LocalizedRun(params=params, x0=int(x0), times=times, c=c,
                        psi_e=psi_e, phi=phi)


def wavefront_position(x: np.ndarray, profile: np.ndarray,
                       lobe_floor: float = 1e-3, edge_frac: float = 0.1) -> int:
    """Ballistic wavefront location |x| of a symmetric position profile.

    Folds the profile onto |x|, finds the outermost local maximum above
    lobe_floor * max (the leading caustic lobe), and returns the outermost
    site where the profile still reaches edge_frac of that lobe height.
    """
    x = np.asarray(x)
    profile = np.asarray(profile, dtype=float)
    folded = np.zeros(int(np.max(np.abs(x))) + 1)
    np.maximum.at(folded, np.abs(x), profile)
    mid = folded[1:-1]
    lobes = np.flatnonzero((mid > lobe_floor * folded.max())
                           & (mid >= folded[:-2]) & (mid >= folded[2:])) + 1
    if lobes.size == 0:
        raise ParameterError("profile has no resolvable leading lobe")
    lobe = int(lobes[-1])
    reached = np.flatnonzero(folded[lobe + 1:] >= edge_frac * folded[lobe])
    return lobe + 1 + int(reached[-1]) if reached.size else lobe


@dataclass(frozen=True)
class PositionObservables:
    """Snapshot of position-space occupations on centered sites x."""

    t: float
    x: np.ndarray
    n_photon: np.ndarray
    p_ground: np.ndarray
    p_excited: np.ndarray


def position_observables(run: LocalizedRun, t: float) -> PositionObservables:
    """Photon number N(x), ground P_g(x) and excited P_e(x) distributions.

    Built from the joint amplitude B(k_g, p) = c_{k_g+p} phi_{k_g+p}(p, t)
    over the ground-emitter momentum k_g and photon momentum p (grid-closed
    index arithmetic), via

        N(x)   = (1/L) sum_{k_g} |sum_p e^{-i p x} B(k_g, p)|^2,
        P_g(x) = (1/L) sum_p |sum_{k_g} e^{-i k_g x} B(k_g, p)|^2,
        P_e(x) = (1/L) |sum_K e^{-i K x} c_K psi_eK(t)|^2,

    the conjugate phases placing an emitter built from c_K = e^{i K x0} at
    +x0.  Satisfies sum_x N = sum_x P_g and sum_x (P_e + P_g) = 1.
    """
    it = _time_index(run.times, t)
    L = run.params.L
    idx = np.arange(L)
    ksum = grid_add_index(idx[:, None], idx[None, :], L)  # index of k_g + p
    b_joint = run.c[ksum] * run.phi[it][ksum, idx[None, :]]

    # e^{-i p_n x} = e^{i pi x} e^{-2 pi i n x / L}: the prefactor drops in |.|^2.
    n_photon = np.sum(np.abs(np.fft.fft(b_joint, axis=1)) ** 2, axis=0) / L
    p_ground = np.sum(np.abs(np.fft.fft(b_joint, axis=0)) ** 2, axis=1) / L
    p_excited = np.abs(np.fft.fft(run.c * run.psi_e[it])) ** 2 / L

    half = L // 2
    x = np.arange(-half, half)
    return PositionObservables(
        t=float(run.times[it]),
        x=x,
        n_photon=np.roll(n_photon, half),
        p_ground=np.roll(p_ground, half),
        p_excited=np.roll(p_excited, half),
    )
