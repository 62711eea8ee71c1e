"""Independent brute-force verifiers for the closed-form results, built on the
lattice with none of the package's closed forms (self-energy, secular sum,
scattering amplitudes, bound-state roots) in the loop:

* dense_block_diagonalize - eigenvalues and emitter weights of one K block.
  In x, the photon's site minus the emitter's, the block is a ring with
  H|x> = -z*|x+1> - z|x-1> (z = J + J' e^{-iK} = b e^{i phi}, the motion-induced
  phase; its Fourier transform is omega_tilde(K, p) = -2 Re(z e^{ip})) and the
  emitter level E_{K,Delta} bound to site 0 by Omega.  The gauge
  |x> -> e^{-i phi x}|x> leaves all bonds -b but the two at site h = L/2, which
  carry e^{-+i h phi}, and s_k, a_k = (|k> +- |-k>)/sqrt(2) make it a real path
  (emitter, 0, s_1 .. s_{h-1}, h, a_{h-1} .. a_1; zero diagonal past the
  emitter; bonds Omega, sqrt(2) b, b .., sqrt(2) b |cos h phi|, sqrt(2) b
  |sin h phi|, b ..; signs change nothing here).  Starting at the emitter, it
  is the tridiagonal a reduction of the dense block gives (implicit-Q
  theorem), and the weights are the squared first row of its eigenvectors
  (Golub & Welsch, Math. Comp. 23, 221 (1969)), the residues of its
  resolvent's (0, 0) entry: dsterf's eigenvalues, each weight from a
  recurrence down the path, O(L) an eigenvalue, and dstein's inverse
  iteration only for the weights that the recurrence cannot certify, all in
  O(L) memory.  It checks the bound states and the completeness of
  scattering plus bound states.

* wavepacket_scattering_oracle - scatters a Gaussian single-photon packet
  off a Gaussian ground-state emitter packet by brute-force time evolution
  and measures transmission/reflection populations and peak momenta.  The
  evolution uses a Chebyshev expansion of exp(-iHt) (machine-precision for
  enough terms, no time-step error), its Bessel coefficients from Miller's
  backward recurrence, vectorized over all participating
  total-momentum blocks, which keeps the L = 2000 experiment to seconds
  where per-block dense eigendecompositions would take many minutes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, OracleInvalid, ParameterError, check_memory
from .model import (
    ModelParams,
    gap_energy,
    grid_sub_index,
    momentum_grid,
    omega_tilde,
    v_emitter,
    v_photon,
    wrap,
    z_of_K,
)


@dataclass(frozen=True)
class BlockSpectrum:
    """Eigenvalues (ascending) and excited-state weights of one K block."""

    eigenvalues: np.ndarray
    weights: np.ndarray


#: Eigenvectors of one dstein call: (L+1) x 64 doubles, 1 MiB at L = 2000.
_PANEL = 64

_EPS = np.finfo(float).eps


def _lattice_tridiagonal(params: ModelParams, K: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and bonds e of the K block's path (see the module docstring)."""
    h, z = params.L // 2, complex(z_of_K(params, K))
    # twist = 0, sin exactly 0, where phi = 0; math.atan2, as cmath.phase raises where phi
    # underflows (a subnormal K)
    b, twist = abs(z), h * math.atan2(z.imag, z.real)
    d, bulk, r2b = np.zeros(params.L + 1), np.full(h - 2, b), math.sqrt(2.0) * b
    d[0] = gap_energy(params, K)
    return d, np.concatenate(([params.Omega, r2b], bulk,
                              [r2b * abs(math.cos(twist)), r2b * abs(math.sin(twist))], bulk))


def _lapack(name: str, info: int) -> None:
    if info != 0:
        raise NumericalFailure(f"LAPACK {name} failed (info = {info})")


def dense_block_diagonalize(params: ModelParams, K: float) -> BlockSpectrum:
    """Eigenvalues of the K block and their weights |<K|v_n>|^2, row 0 of its path's
    eigenvectors squared; needs scipy.  The path splits at a bond of 0 (or subnormal, which
    dstein mishandles): Omega = 0, or phi = 0 (K = 0 or J' = 0), whose L/2 - 1 odd states
    a_k are dark.  Only the part that holds row 0 weighs.

    Its weights are residues of the resolvent's (0, 0) entry (Golub & Welsch): with
    f = 1 / G_00, w = 1 / f'(lambda) at each of dsterf's eigenvalues lambda, and f' = S,
    the squared norm of the solution v of rows 1 .. m-1 with v_0 = 1 (_row0_residual, O(m)
    an eigenvalue; Dhillon & Parlett, Linear Algebra Appl. 387, 1 (2004)).  One Newton
    step lambda_1 = lambda - f / S moves to the eigenvalue, and w = 1 / S(lambda_1) is kept
    where all of these certify it:

    (a) the step is at most _STEP_OF_GAP of the gap to the neighbouring eigenvalues, so
        it cannot land on another one's root;
    (b) a second step, |f(lambda_1)| / S(lambda_1), is within _ROUNDING eps of the path's
        scale |lambda_1| + max|d| + 2 max e, so lambda_1 is the root to rounding;
    (c) the first-order weight error |S'| w^2 (|f(lambda_1)| w + 2 ulp(lambda_1)) is at
        most _WEIGHT_TOL, so w is not on a steep flank of S near a close pair;
    (d) w is finite.

    The recurrence fixes v_0 = 1, so an eigenvector small at row 0, a close pair, or an
    overflow breaks it; those eigenvalues, and only those, go to dstein's inverse
    iteration (_row0_weights).  The budget charges O(L) and dstein's panel."""
    from scipy.linalg import lapack  # scipy is needed only by this oracle

    def sterf(d, e):  # the wrapper takes no empty e
        energy, info = lapack.dsterf(d, e) if d.size > 1 else (d.copy(), 0)
        _lapack("dsterf", info)
        return energy

    n = params.L + 1
    check_memory(8 * n * (_PANEL + 16), "dense K-block work", "reduce L")
    d, e = _lattice_tridiagonal(params, K)
    m = 1 + int(np.argmax(np.append(e, 0.0) < np.finfo(float).tiny))  # row 0's part
    energy = np.concatenate((sterf(d[:m], e[:m - 1]), sterf(d[m:], e[m:])))
    weights = np.zeros(n)
    weights[:m] = _path_weights(lapack, d[:m], e[:m - 1], energy[:m]) if m > 1 else 1.0
    order = np.argsort(energy, kind="stable")
    return BlockSpectrum(eigenvalues=energy[order], weights=weights[order])


#: Acceptance of a recurrence weight, conditions (a)-(c) of dense_block_diagonalize.
_STEP_OF_GAP = 1e-3
_ROUNDING = 8.0
_WEIGHT_TOL = 4e-14


def _path_weights(lapack, d, e, energy) -> np.ndarray:
    """z_0^2 of the unit eigenvectors z of the unreduced tridiagonal (d, e) at its ascending
    eigenvalues `energy`: the recurrence's certified weights, dstein's for the rest."""
    # A power of two scales the path to order 1 exactly, so that no square over- or
    # underflows for its size; the weights do not change.
    scale = 2.0 ** -math.frexp(max(np.abs(d).max(), e.max()))[1]
    d, e, lam = d * scale, e * scale, energy * scale
    with np.errstate(all="ignore"):  # an overflow or 0/0 only fails the checks below
        f, s, _ = _row0_residual(d, e, lam, slope=False)
        step = f / s
        lam1 = lam - step
        f1, s1, ds1 = _row0_residual(d, e, lam1, slope=True)
        w = 1.0 / s1
        gap = np.minimum(np.diff(lam, prepend=-np.inf), np.diff(lam, append=np.inf))
        norm = np.abs(d).max() + 2.0 * e.max()
        second = np.abs(f1) * w
        certified = ((np.abs(step) <= _STEP_OF_GAP * gap)
                     & (second <= _ROUNDING * _EPS * (np.abs(lam1) + norm))
                     & (np.abs(ds1) * w * w * (second + 2.0 * np.spacing(np.abs(lam1)))
                        <= _WEIGHT_TOL)
                     & np.isfinite(w))
    w[~certified] = _row0_weights(lapack, d, e, lam[~certified])
    return w


def _row0_residual(d, e, lam, slope: bool):
    """f = 1 / G_00, S = f' and, with `slope`, S' of the tridiagonal (d, e) at every lam at
    once.  f = lam - d_0 - e_0 v_1 for the v that solves rows 1 .. m-1 of (T - lam) v = 0
    with v_0 = 1, S = sum_j v_j^2: from the bottom row up, the pivots
    q_j = lam - d_j - e_j^2 / q_{j+1} (f = q_0) and their slopes D_j = dq_j / dlam (S = D_0)."""
    q, s = lam - d[-1], np.ones_like(lam)
    ds = np.zeros_like(lam) if slope else None
    x, g, y = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
    for dj, ej in zip(d[-2::-1].tolist(), e[::-1].tolist()):  # rows m-2 .. 0
        np.divide(ej * ej, q, out=x)
        np.divide(x, q, out=g)  # (v_{j+1} / v_j)^2, so D_j = 1 + g D_{j+1}
        if slope:  # dD_j = g (dD_{j+1} - 2 D_{j+1}^2 / q_{j+1})
            np.divide(s, q, out=y)
            y *= s
            y += y
            ds -= y
            ds *= g
        s *= g
        s += 1.0
        np.subtract(lam, x, out=q)
        if dj:
            q -= dj
    return q, s, ds


def _row0_weights(lapack, d, e, energy) -> np.ndarray:
    """z_0^2 of the unit eigenvectors z of the unreduced tridiagonal (d, e) at ascending
    eigenvalues `energy` (all of its eigenvalues or some), by dstein's inverse iteration
    _PANEL eigenvalues at a time."""
    m = d.size
    block, split = np.ones(m, dtype=np.int32), np.full(m, m, dtype=np.int32)  # one block
    k = energy.size
    weights, a = np.empty(k), 0
    while a < k:
        # dstein keeps close eigenvalues' vectors orthogonal within one call only, so
        # each panel ends at the widest gap of its second half.
        half = energy[a + _PANEL // 2:a + _PANEL + 1]
        b = k if k - a <= _PANEL else a + _PANEL // 2 + 1 + int(np.argmax(np.diff(half)))
        z, info = lapack.dstein(d, e, energy[a:b], block, split)
        _lapack("dstein", info)
        weights[a:b] = z[0] ** 2
        a = b
    return weights


# ---------------------------------------------------------------------------
# Chebyshev propagation over a batch of K blocks


#: Bytes of one (blocks, L) complex array of the Chebyshev recursion; its
#: five arrays of that size (1.25 MiB) then fit in a 2 MiB L2 cache.
_CACHE_BYTES = 1 << 18


def chebyshev_evolve_blocks(diag: np.ndarray, e_gap: np.ndarray, coupling: float,
                            phi0: np.ndarray, psi_e0: np.ndarray, t: float
                            ) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H t) on (n_blocks, L) photon + (n_blocks,) excited amplitudes.

    Each block Hamiltonian is diagonal plus a border column of `coupling`;
    its spectrum lies in _spectral_interval's bound over all blocks, which
    fixes the Chebyshev scaling.  Terms are summed until the Bessel
    coefficients fall below 1e-16, so the result carries no time-step error
    (at t = 0 one term with coefficient 1 remains).  The blocks are
    independent, so they are summed a few at a time, sized so that the
    recursion's arrays stay in cache; the result does not depend on the
    grouping.
    """
    n_blocks, L = phi0.shape
    lo, hi = _spectral_interval(diag, e_gap, coupling)
    a = 0.5 * (hi + lo)
    b = 0.5 * (hi - lo) * (1.0 + 1e-9) + 1e-12

    bt = b * t
    n_est = int(bt + 14.0 * (bt + 20.0) ** (1.0 / 3.0) + 25.0)
    orders = np.arange(n_est + 1)
    bessel = _bessel_j(n_est, bt)
    keep = np.flatnonzero(np.abs(bessel) > 1e-16)
    n_terms = int(keep[-1]) + 1 if keep.size else 1

    phase = np.exp(-1j * a * t)
    i_pow = np.array([1.0, -1j, -1.0, 1j])[orders[:n_terms] % 4]
    coef = phase * (2.0 - (orders[:n_terms] == 0)) * i_pow * bessel[:n_terms]

    phi = np.empty((n_blocks, L), dtype=complex)
    psi = np.empty(n_blocks, dtype=complex)
    rows = max(1, _CACHE_BYTES // (16 * L))
    for s in range(0, n_blocks, rows):
        r = slice(s, s + rows)
        phi[r], psi[r] = _chebyshev_sum(coef, (diag[r] - a) / b, (e_gap[r] - a) / b,
                                        coupling / b, phi0[r], psi_e0[r])
    return phi, psi


def _spectral_interval(diag: np.ndarray, e_gap: np.ndarray, coupling: float
                      ) -> tuple[float, float]:
    """[lo, hi] holding the spectrum of every block diag(diag[j]) bordered by a column of
    `coupling` to the level e_gap[j].

    With Omega = |coupling| sqrt(L), Cauchy-Schwarz on the border puts a unit vector's
    energy between the eigenvalues of [[d_min, Omega], [Omega, E]] and of [[d_max, Omega],
    [Omega, E]] (d_min and d_max the block's smallest and largest diag).  Each lies
    s = Omega^2 / (r + delta) past min(d, E) or max(d, E), with delta = |d - E| / 2 and
    r = hypot(delta, Omega), and r + delta >= Omega holds in floating point, so s <= Omega:
    the interval is never wider than [min(d, E) - Omega, max(d, E) + Omega].
    """
    om = abs(coupling) * math.sqrt(diag.shape[-1])

    def past(d):  # s for the blocks' d and e_gap; 0 without a coupling
        half = 0.5 * np.abs(d - e_gap)
        return om * (om / (np.hypot(half, om) + half)) if om > 0.0 else 0.0

    d_min, d_max = diag.min(axis=-1), diag.max(axis=-1)
    return (float(np.min(np.minimum(d_min, e_gap) - past(d_min))),
            float(np.max(np.maximum(d_max, e_gap) + past(d_max))))


def _bessel_j(n: int, x: float) -> np.ndarray:
    """J_0(x) .. J_n(x) for 0 <= x <= n by Miller's backward recurrence (Gautschi,
    SIAM Rev. 9, 24 (1967)), normalised by J_0 + 2 sum_k J_2k = 1.

    The recurrence J_{k-1} = (2k/x) J_k - J_{k+1} starts from J = 0 at an
    order far past n, where the minimal solution J swamps any start, and is
    carried as the ratios r_k = J_k / J_{k-1} = x / (2k - x r_{k+1}): the
    rescaling that the unnormalised values need before they overflow (by
    2k/x a step at small x) is built in.  At x = 0 every ratio is 0 and
    J_0 = 1 exactly.
    """
    top = n + 20 + int(math.sqrt(40 * n))
    ratio, r = 0.0, np.empty(top)
    for k in range(top, 0, -1):
        # A zero denominator (J_{k-1} = 0 to rounding) takes its rounding scale.
        ratio = x / (2 * k - x * ratio or 2 * k * _EPS)
        r[k - 1] = ratio
    p = np.cumprod(r)  # J_k / J_0
    j0 = 1.0 / (1.0 + 2.0 * math.fsum(p[1::2]))
    return np.concatenate(([j0], j0 * p[:n]))


def _chebyshev_sum(coef, sdiag, sgap, sw, phi0, psi_e0):
    """sum_n coef_n T_n(H) (phi0, psi_e0) for the scaled blocks H."""
    n_terms = coef.size
    pm1, em1 = phi0.astype(complex), psi_e0.astype(complex)
    p0_, e0_ = sdiag * pm1 + sw * em1[:, None], sgap * em1 + sw * pm1.sum(axis=1)  # H T_0
    phi = coef[0] * pm1 + (coef[1] * p0_ if n_terms > 1 else 0.0)
    psi = coef[0] * em1 + (coef[1] * e0_ if n_terms > 1 else 0.0)
    # T_{n+1} = 2 H T_n - T_{n-1} in three buffers; doubling is exact, so
    # 2 diag and 2 coupling give the same bits as doubling H T_n.
    d2 = np.repeat(2.0 * sdiag, 2, axis=-1)  # one factor per real and imaginary part
    p1 = np.empty_like(pm1)
    for n in range(2, n_terms):
        np.multiply(d2, p0_.view(float), out=p1.view(float))
        p1 += (2.0 * sw * e0_)[:, None]
        p1 -= pm1
        e1 = 2.0 * (sgap * e0_ + sw * p0_.sum(axis=1)) - em1
        np.multiply(coef[n], p1, out=pm1)  # T_{n-1} is spent; its buffer takes the term
        phi += pm1
        psi += coef[n] * e1
        pm1, p0_, p1 = p0_, p1, pm1
        em1, e0_ = e0_, e1
    return phi, psi


# ---------------------------------------------------------------------------
# Wavepacket scattering


@dataclass(frozen=True)
class WavepacketResult:
    """Measured branch populations and peak momenta of the scattered packet."""

    transmission: float
    reflection: float
    p_transmitted: float
    p_reflected: float
    excited_residual: float
    photon_occupation: np.ndarray
    n_blocks: int


def _gaussian_packet(p: np.ndarray, center: float, sigma: float, x0: float
                     ) -> np.ndarray:
    amp = np.exp(-wrap(p - center) ** 2 / (4.0 * sigma**2)) \
        * np.exp(-1j * p * x0)
    return amp / np.linalg.norm(amp)


def wavepacket_scattering_oracle(params: ModelParams, k0: float, p0: float,
                                 sigma_p: float, t_final: float) -> WavepacketResult:
    """Scatter Gaussian photon/emitter packets and measure the outcome.

    The packets sit at fixed places: the ground-state emitter, centered at
    k0, at site 0, and the photon, centered at p0, where it meets the emitter
    at 0.45 * t_final.  Their product is decomposed into total-momentum
    blocks (those above 1e-16 of the largest block weight), evolved exactly
    to t_final, and the final photon momentum population is split into a
    transmitted branch (the arc within 10 sigma_p of p0) and the
    complementary reflected branch whose edges are the circle midpoints
    between p0 and the measured reflected peak.
    """
    L = params.L
    if sigma_p <= 0:
        raise ParameterError("sigma_p must be positive")
    if sigma_p > 0.05:
        warnings.warn("sigma_p above the 0.05 validity guideline", OracleInvalid,
                      stacklevel=2)
    edge_dist = min(abs(wrap(p0)), abs(math.pi - abs(wrap(p0))))
    if edge_dist < 5.0 * sigma_p:
        warnings.warn("photon packet overlaps a band edge (zero group "
                      "velocity); branch populations may be unreliable",
                      OracleInvalid, stacklevel=2)
    x_photon = -0.45 * t_final * float(v_photon(params, p0) - v_emitter(params, k0))
    v_max = 2.0 * (params.J + params.Jp)
    if t_final * v_max >= L / 2.0:
        warnings.warn("t_final allows wrap-around on the ring; reduce t_final "
                      "or increase L", OracleInvalid, stacklevel=2)

    p = momentum_grid(L)
    a_ph = _gaussian_packet(p, p0, sigma_p, x_photon)
    b_qb = _gaussian_packet(p, k0, sigma_p, 0.0)

    # phi_K(p) = A(p) B(K - p): emitter index j = index(K) - index(p) on the
    # closed grid.  The block weights are summed a panel of K rows at a time.
    m_idx = np.arange(L)
    rows = max(1, _CACHE_BYTES // (16 * L))
    block_w = np.concatenate([
        np.sum(np.abs(a_ph * b_qb[grid_sub_index(m_idx[s:s + rows, None], m_idx, L)]) ** 2,
               axis=1) for s in range(0, L, rows)])
    keep = np.flatnonzero(block_w > 1e-16 * block_w.max())
    # phi0 and phi_t (complex), diag and |phi_t|: 48 bytes a kept (K, p) at the peak.
    check_memory(48 * keep.size * L, f"{keep.size} wavepacket blocks", "reduce L or sigma_p")
    phi0 = a_ph[None, :] * b_qb[grid_sub_index(keep[:, None], m_idx[None, :], L)]
    norm = math.sqrt(float(np.sum(np.abs(phi0) ** 2)))
    phi0 /= norm

    kgrid = momentum_grid(L)[keep]
    diag = omega_tilde(params, kgrid[:, None], p[None, :])
    e_gap = gap_energy(params, kgrid)
    phi_t, psi_t = chebyshev_evolve_blocks(
        diag, e_gap, params.Omega / math.sqrt(L), phi0,
        np.zeros(keep.size, dtype=complex), t_final)

    n_p = np.sum(np.abs(phi_t) ** 2, axis=0)
    excited = float(np.sum(np.abs(psi_t) ** 2))

    near_p0 = np.abs(wrap(p - p0)) <= 10.0 * sigma_p
    i_refl = int(np.argmax(np.where(near_p0, -1.0, n_p)))
    p_refl_peak = float(p[i_refl])
    # Transmitted arc: the side of the two circle midpoints of p0 and the
    # reflected peak that contains p0.
    m1 = wrap(p0 + 0.5 * wrap(p_refl_peak - p0))
    m2 = wrap(m1 + math.pi)
    lo, hi = sorted((m1, m2))
    in_band = (p > lo) & (p <= hi)
    if not (lo < wrap(p0) <= hi):
        in_band = ~in_band
    transmission = float(n_p[in_band].sum())
    reflection = float(n_p[~in_band].sum())

    def peak_centroid(mask: np.ndarray, ref: float) -> float:
        masked = np.where(mask, n_p, 0.0)
        i = int(np.argmax(masked))
        sl = slice(max(0, i - 5), min(L, i + 6))
        w = n_p[sl]
        if w.sum() == 0.0:
            return float(p[i])
        return float(ref + np.sum(wrap(p[sl] - ref) * w) / w.sum())

    return WavepacketResult(
        transmission=transmission,
        reflection=reflection,
        p_transmitted=peak_centroid(in_band, p0),
        p_reflected=peak_centroid(~in_band, p_refl_peak),
        excited_residual=excited,
        photon_occupation=n_p,
        n_blocks=int(keep.size),
    )
