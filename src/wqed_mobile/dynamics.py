"""Time evolution in the single-excitation sector.

Total momentum is conserved, so the dynamics splits into independent
(L+1) x (L+1) blocks, one per total momentum K: the excited emitter |K> at
energy E_{K,Delta} coupled with strength Omega/sqrt(L) to the L hybrid
photon+recoil modes |p>_K at energies omega_tilde(K, p).  Each block is an
arrowhead matrix, diagonal plus one border, and is evolved exactly from its
eigenpairs in closed form: the eigenvalues are the roots of the finite-L
secular equation, one per interval between the sorted photon poles, and
each eigenvector follows from its eigenvalue (Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 15, 1266 (1994); R.-C. Li, LAPACK Working Note 89
(1993)).  A block costs O(L^2) instead of a dense O(L^3)
eigendecomposition, and every requested time carries no integrator error.
Every block starts from the excited emitter with the field empty, the
spontaneous emission that is the only dynamics evolved here.

An emitter localized at site x0 is the uniform superposition
c_K = e^{i K x0} / sqrt(L) of the blocks' excited states; position-space
observables are assembled from the per-block trajectories with discrete
Fourier transforms on the (L-even, hence closed) momentum grid.  Block -K
is block K with p -> -p, so such a run solves L/2 + 1 blocks (one at J' = 0).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandEdgeSingularity,
    NotEmbedded,
    NumericalFailure,
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
    it, but K blocks evolve in one loop."""
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


def _time_index(times: np.ndarray, t: float, what: str = "sampled times") -> int:
    """Index of the sampled time t in a trajectory's `times`."""
    i = int(np.argmin(np.abs(times - t))) if times.size else 0
    if not times.size or abs(times[i] - t) > 1e-12 * max(1.0, abs(t)):
        raise ParameterError(f"t = {float(t)!r} is not one of the {what}")
    return i


#: Elements of each (root, pole) work array of the secular solver.
_CHUNK = 1 << 18


def _work_array(L: int) -> np.ndarray:
    """Scratch space of _block_modes for blocks of size L; reusing it across
    blocks spares the page faults of fresh arrays."""
    return np.empty(3 * max(_CHUNK, L + 2))


def _check_block_budget(L: int, n_blocks: int, n_times: int, n_snapshots: int):
    # The block in flight: its (L+1) x L inverse with the ~400 doubles a row
    # that BLAS packs of it, the root scratch and one temporary of its size,
    # the phases over the times (with their real argument) and the snapshots
    # (with two products of their size).  Then every stored psi_e and phi.
    check_memory(8 * ((L + 1) * (L + 512) + 4 * max(_CHUNK, L + 2))
                 + 16 * (L + 1) * (2 * n_times + 3 * n_snapshots)
                 + 16 * n_blocks * (n_times + n_snapshots * L),
                 "K-block work", "reduce L, the sample count or the snapshots")


@dataclass(frozen=True)
class KBlockTrajectory:
    """Exact block evolution sampled at `times` (psi_e: (nt,), phi: (nt, L))."""

    K: float
    times: np.ndarray
    psi_e: np.ndarray
    phi: np.ndarray

    def norms(self) -> np.ndarray:
        return np.abs(self.psi_e) ** 2 + np.sum(np.abs(self.phi) ** 2, axis=1)


_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class _BlockModes:
    """Eigenpairs of one K block.

    Photon poles that agree to a few ulps form one group (an exact
    degeneracy).  Within a group only the uniform combination couples to the
    emitter; the rest are dark states at the group's pole.  A group whose
    coupling rounds to nothing is dark as a whole.  The bright groups and the
    emitter span the eigenstates n, with emitter amplitude sqrt(w_n) and
    photon amplitude g sqrt(w_n) / (E_n - pole) on every member of a bright
    group; `inverse` holds 1 / (E_n - pole) over (state, bright group).
    Dark states have no emitter amplitude, so the excited emitter never
    populates them.
    """

    coupling: float
    group: np.ndarray
    pole: np.ndarray
    bright: np.ndarray
    energy: np.ndarray
    weight: np.ndarray
    inverse: np.ndarray


def _block_modes(params: ModelParams, K: float, work: np.ndarray) -> _BlockModes:
    """Eigenpairs of the K block in O(L^2), without forming the matrix.

    `work` comes from _work_array(L); callers that loop over K reuse it, and
    the returned `inverse` may live in it until the next call.
    """
    L = params.L
    u = omega_tilde(params, K, momentum_grid(L))
    g = params.Omega / math.sqrt(L)
    tol = 32 * _EPS * (params.J + params.Jp)  # exact degeneracies round apart by ~10 eps
    order = np.argsort(u, kind="stable")
    in_group = np.concatenate(([0], np.cumsum(np.diff(u[order]) > tol)))
    group = np.empty(L, dtype=np.intp)
    group[order] = in_group
    size = np.bincount(in_group)
    pole = np.bincount(in_group, weights=u[order]) / size
    bright = g * np.sqrt(size) > tol
    energy, weight, inverse = _secular_roots(pole[bright], size[bright].astype(float),
                                             g * g, float(gap_energy(params, K)), work)
    return _BlockModes(coupling=g, group=group, pole=pole, bright=bright,
                       energy=energy, weight=weight, inverse=inverse)


def _secular_roots(P: np.ndarray, M: np.ndarray, g2: float, a: float, work: np.ndarray):
    """Eigenvalues E_n, emitter weights w_n and 1 / (E_n - P) of the arrowhead
    matrix with emitter level a and poles P of multiplicity M.

    The n-th root of h(E) = g2 sum_j M_j / (E - P_j) - (E - a) lies in the
    n-th interval of the sorted poles, the first below and the last above
    them (inside the Weyl bounds).  Each root is held as E = P_o + tau about
    its nearer pole P_o, so that E - P_j = (P_o - P_j) + tau and
    E - a = (P_o - a) + tau keep tau's relative accuracy however close E
    comes to a pole.  Each step solves a rational model of h (see
    _model_step), safeguarded by bisection, and a root stops once h is zero
    to its rounding or a step no longer moves tau in its last bits.  The
    roots are independent, and are solved in chunks that keep the (root,
    pole) work arrays at _CHUNK elements.
    """
    nb = P.size
    span = math.sqrt(g2 * M.sum())
    lo_edge = np.concatenate(([min(P.min(initial=a), a) - span], P))
    hi_edge = np.concatenate((P, [max(P.max(initial=a), a) + span]))
    Pa = np.append(P, a)  # a is the origin of the only root when there is no pole
    Mpad = np.concatenate(([0.0], M, [0.0]))
    energy = np.empty(nb + 1)
    weight = np.empty(nb + 1)
    chunk = max(1, _CHUNK // (nb + 2))
    # With one chunk the result takes the place of the last work array, still
    # in cache; with several it needs its own.
    inverse = (work[2 * (nb + 1) * (nb + 2):][:(nb + 1) * nb] if chunk > nb
               else np.empty((nb + 1) * nb)).reshape(nb + 1, nb)
    for start in range(0, nb + 1, chunk):
        n = np.arange(start, min(start + chunk, nb + 1))
        # (root, pole) arrays with an empty column on each side, so that row n
        # splits into nonempty sums over the poles left (j < n) and right of it.
        diff, d, x = work[:3 * n.size * (nb + 2)].reshape(3, n.size, nb + 2)
        diff[:, [0, -1]] = np.inf

        def evaluate(rows, origin, tau):
            k = rows.size
            if k == n.size:
                np.add(diff, tau[:, None], out=d)
            else:
                np.take(diff, rows, axis=0, out=d[:k])
                d[:k] += tau[:, None]
            cuts = ((np.arange(k) * (nb + 2))[:, None]
                    + np.stack([0 * rows, n[rows] + 1], axis=1)).ravel()
            np.divide(Mpad, d[:k], out=x[:k])  # M_j / (E - P_j)
            left1, right1 = g2 * np.add.reduceat(x[:k].ravel(), cuts).reshape(k, 2).T
            np.divide(x[:k], d[:k], out=x[:k])  # M_j / (E - P_j)^2
            left2, right2 = g2 * np.add.reduceat(x[:k].ravel(), cuts).reshape(k, 2).T
            h = left1 + right1 - ((origin - a) + tau)
            bound = 8 * _EPS * (left1 - right1 + abs(origin - a) + abs(tau))
            return h, bound, left2, right2

        # The first evaluation, at the interval midpoints, picks each root's
        # half and so its origin; the first step models h by the exact terms
        # of the two poles next to it.
        lo, hi = lo_edge[n], hi_edge[n]
        mid = lo + 0.5 * (hi - lo)
        diff[:, 1:-1] = mid[:, None] - P
        rows = np.arange(n.size)
        h, bound, dleft, dright = evaluate(rows, mid, np.zeros(n.size))
        o = np.clip(np.where(h > 0, n, n - 1), 0, max(nb - 1, 0))
        origin = Pa[o]
        diff[:, 1:-1] = origin[:, None] - P
        tau = mid - origin
        at_lo = o == n - 1
        with np.errstate(all="ignore"):
            near = g2 * Mpad[o + 1] / (tau * tau)
            far = g2 * np.where(at_lo, Mpad[n + 1] / (mid - hi) ** 2,
                                Mpad[n] / (mid - lo) ** 2)
        lo = np.where(h > 0, tau, lo - origin)
        hi = np.where(h > 0, hi - origin, tau)
        for _ in range(100):
            t = tau[rows]
            with np.errstate(all="ignore"):
                step = _model_step(at_lo[rows], t, h, near, far)
            done = (np.abs(h) <= bound) | (np.abs(step - t) <= 2 * _EPS * np.abs(t))
            weight[n[rows[done]]] = 1.0 / (1.0 + dleft[done] + dright[done])
            rows, step = rows[~done], step[~done]
            if not rows.size:
                break
            lo_r, hi_r = lo[rows], hi[rows]
            tau[rows] = t = np.where((step > lo_r) & (step < hi_r), step, 0.5 * (lo_r + hi_r))
            h, bound, dleft, dright = evaluate(rows, origin[rows], t)
            lo[rows] = np.where(h > 0, t, lo_r)
            hi[rows] = np.where(h < 0, t, hi_r)
            near = np.where(at_lo[rows], dleft, dright)
            far = np.where(at_lo[rows], dright, dleft)
        else:
            raise NumericalFailure(f"secular equation: {rows.size} root(s) did not converge")
        energy[n] = origin + tau
        block = inverse[start:start + n.size]
        np.add(diff[:, 1:-1], tau[:, None], out=block)
        np.reciprocal(block, out=block)
    return energy, weight, inverse


def _model_step(at_lo, tau, h, near, far):
    """Next tau: the root on the origin's side of the model

        h(tau') = c + s / tau' - (1 + far) (tau' - tau),   s = near tau^2,

    whose pole term stands for the poles on the origin's side (slope `near`
    at tau) and whose linear term for the poles on the other side (slope
    `far`) and for -(E - a).  It matches h and h' at tau.  Close to the
    origin pole it is that pole; far from every pole it is Newton's step.
    """
    k = 1.0 + far
    s = near * tau * tau
    q = h - near * tau + k * tau
    r = np.sqrt(q * q + 4 * k * s)
    up = np.where(q >= 0, 0.5 * (q + r) / k, 2 * s / (r - q))
    down = np.where(q <= 0, 0.5 * (q - r) / k, -2 * s / (q + r))
    return np.where(at_lo, up, down)


def _evolve_modes(modes: _BlockModes, times: np.ndarray, snapshots: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """psi_e at every time and phi at every snapshot from the excited emitter,
    whose overlap with eigenstate n is sqrt(w_n)."""
    psi_e = _phases(times, modes.energy) @ modes.weight
    phase = _phases(modes.energy, snapshots)
    phase *= modes.weight[:, None]
    coupled = np.zeros((modes.pole.size, snapshots.size), dtype=complex)
    # The real inverse times the complex phases, as one real product.
    coupled[modes.bright] = (modes.inverse.T @ phase.view(float)).view(complex)
    coupled *= modes.coupling
    return psi_e, coupled[modes.group].T


def _phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i a_j b_k) over (j, k), from one real product and its cos and sin."""
    arg = np.multiply.outer(a, b)
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _checked_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1-D array")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ParameterError("times must be sorted and nonnegative")
    return times


def evolve_fixed_K(params: ModelParams, K: float, times) -> KBlockTrajectory:
    """Evolve one K block exactly from the excited emitter |K> with no photon."""
    times = _checked_times(times)
    _check_block_budget(params.L, 1, times.size, times.size)
    modes = _block_modes(params, K, _work_array(params.L))
    psi_e, phi = _evolve_modes(modes, times, times)
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


def spectrum_peaks(p: np.ndarray, n_p: np.ndarray) -> list[float]:
    """Momenta of the two tallest circular local maxima of N_p."""
    up = n_p > np.roll(n_p, 1)
    down = n_p >= np.roll(n_p, -1)
    idx = np.flatnonzero(up & down)
    idx = idx[np.argsort(n_p[idx])[::-1]]
    return [float(p[i]) for i in idx[:2]]


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
    return 2.0 * params.Omega**2 / (math.sqrt(b - e) * math.sqrt(b + e))


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
    |E_{K,Delta}| <= 2|z(K)|}: none, one centered at K = 0, or a mirrored
    pair (a component around pi is reported split at +-pi).  w_plus is the
    positive-K extent of a window centered at K = 0; w_minus the width of a
    window detached from K = 0.  jc_minus / jc_plus are the exact critical
    emitter hoppings at which a window first opens as J' grows (endpoint
    collision of the embedding condition), and the *_approx fields the
    small-J' closed forms sqrt(-Delta J - 2 J^2) and Delta/4 - J/2.
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


def classify_regime_and_windows(params: ModelParams) -> EmissionWindows:
    """Embedded set of momenta, window widths, and critical couplings.

    |E_{K,Delta}| <= 2|z(K)| is a convex quadratic inequality in cos K, so on
    [0, pi] (the margin is even in K) it holds on one interval at most.  That
    interval is scanned at 4001 points, its ends are bisected to 1e-8, and it
    is mirrored to negative K; one narrower than the step pi/4000 may be missed.
    """
    ks = np.linspace(0.0, math.pi, 4001)
    inside = np.flatnonzero(_embedding_margin(params, ks) >= 0.0)

    def refine(k_out: float, k_in: float) -> float:
        # margin < 0 at k_out, >= 0 at k_in
        for _ in range(200):
            if abs(k_in - k_out) < 1e-8:
                break
            mid = 0.5 * (k_out + k_in)
            if _embedding_margin(params, mid) >= 0.0:
                k_in = mid
            else:
                k_out = mid
        return 0.5 * (k_out + k_in)

    windows: tuple[tuple[float, float], ...] = ()
    fraction, regime, w_plus, w_minus = 0.0, "none", None, None
    if inside.size:
        i, j = inside[0], inside[-1]
        lo = ks[i] if i == 0 else refine(ks[i - 1], ks[i])
        hi = ks[j] if j == ks.size - 1 else refine(ks[j + 1], ks[j])
        fraction = (hi - lo) / math.pi
        regime = "all" if lo == 0.0 and hi == math.pi else "selective"
        if lo == 0.0:
            windows = ((-hi, hi),)
            w_plus = hi if hi < math.pi else None
        else:
            windows = ((-hi, -lo), (lo, hi))
            w_minus = hi - lo

    return EmissionWindows(
        regime=regime,
        windows=windows,
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
    shape (nt, L) over (time, K), and phi (n_snap, L, L) over (snapshot, K, p)
    holds the photon amplitudes at the sampled times `snapshots` only.
    """

    params: ModelParams
    x0: int
    times: np.ndarray
    c: np.ndarray
    psi_e: np.ndarray
    phi: np.ndarray
    snapshots: np.ndarray

    def pe_total(self) -> np.ndarray:
        """Total excited-state population at every sampled time."""
        return np.sum(np.abs(self.c[None, :]) ** 2 * np.abs(self.psi_e) ** 2, axis=1)

    def total_norm(self) -> np.ndarray:
        """Total norm at every snapshot time."""
        rows = [_time_index(self.times, t) for t in self.snapshots]
        pops = np.abs(self.psi_e[rows]) ** 2 + np.sum(np.abs(self.phi) ** 2, axis=2)
        return np.sum(np.abs(self.c[None, :]) ** 2 * pops, axis=1)


def evolve_localized(params: ModelParams, x0: int, times, snapshots=None) -> LocalizedRun:
    """Evolve every K block for an emitter initially excited at site x0.

    psi_e is kept at every time; phi only at `snapshots`, which must be
    sampled times (default: all of them).  Only blocks K = -pi .. 0 are
    solved; block -K is block K read at -p, and at J' = 0 one solve serves all.
    """
    if not math.isfinite(x0) or x0 != int(x0):
        raise ParameterError(f"x0 must be an integer site (got {x0!r})")
    times = _checked_times(times)
    snapshots = times if snapshots is None else times[
        [_time_index(times, t) for t in np.atleast_1d(snapshots)]]
    L = params.L
    _check_block_budget(L, L, times.size, snapshots.size)
    kgrid = momentum_grid(L)
    c = np.exp(1j * kgrid * x0) / math.sqrt(L)

    n = np.arange(L)
    flip = (L - n) % L  # grid index of -p_n
    # Block -K is block K read at -p (K = -pi and 0 are their own mirrors and
    # keep their own order, written last); at J' = 0 every block is one matrix.
    serves = ({0: [(m, n) for m in n]} if params.Jp == 0 else
              {m: [(flip[m], flip), (m, n)] for m in range(L // 2 + 1)})
    work = _work_array(L)
    psi_e = np.empty((times.size, L), dtype=complex)
    phi = np.empty((snapshots.size, L, L), dtype=complex)
    for source, columns in serves.items():
        psi, ph = _evolve_modes(_block_modes(params, kgrid[source], work), times, snapshots)
        for m, order in columns:
            psi_e[:, m], phi[:, m, :] = psi, ph[:, order]
    return LocalizedRun(params=params, x0=int(x0), times=times, c=c,
                        psi_e=psi_e, phi=phi, snapshots=snapshots)


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
    phi = run.phi[_time_index(run.snapshots, t, "snapshot times")]
    b_joint = run.c[ksum] * phi[ksum, idx[None, :]]

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
