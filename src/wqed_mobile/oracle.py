"""Independent brute-force verifiers for the closed-form results.

Two oracles, both built directly on the dispersion relations with none of
the package's closed forms (self-energy, scattering amplitudes, bound-state
roots) in the loop:

* dense_block_diagonalize - full real-symmetric eigendecomposition of one
  (L+1) x (L+1) momentum block, the matrix dynamics.block_hamiltonian builds
  under the same memory budget, by LAPACK syevd in place on that matrix; its
  extremal eigenvalues and excited-state weights check the bound-state
  solver, and its completeness checks the scattering + bound-state
  resolution of identity.

* wavepacket_scattering_oracle - scatters a Gaussian single-photon packet
  off a Gaussian ground-state emitter packet by brute-force time evolution
  and measures transmission/reflection populations and peak momenta.  The
  evolution uses a Chebyshev expansion of exp(-iHt) (machine-precision for
  enough terms, no time-step error), vectorized over all participating
  total-momentum blocks, which keeps the L = 2000 experiment to seconds
  where per-block dense eigendecompositions would take many minutes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import block_hamiltonian
from .errors import OracleInvalid, ParameterError, check_memory
from .model import (
    ModelParams,
    gap_energy,
    grid_sub_index,
    momentum_grid,
    omega_tilde,
    v_emitter,
    v_photon,
    wrap,
)


@dataclass(frozen=True)
class BlockSpectrum:
    """Eigenvalues (ascending) and excited-state weights of one K block."""

    K: float
    eigenvalues: np.ndarray
    weights: np.ndarray

    def out_of_band_count(self, halfwidth: float, margin: float) -> int:
        return int(np.count_nonzero(np.abs(self.eigenvalues) > halfwidth + margin))


def _dense_block(params: ModelParams, K: float) -> np.ndarray:
    """The K block, once its dense eigensolver's ~6 (L+1)(L+2) doubles fit the budget."""
    check_memory(6 * (params.L + 1) * (params.L + 2) * 8, "dense K-block work", "reduce L")
    return block_hamiltonian(params, K)


def dense_block_diagonalize(params: ModelParams, K: float) -> BlockSpectrum:
    """Full eigendecomposition of the K block; weights are |<K|v_n>|^2.

    LAPACK syevd runs in place on the block it builds (its transpose, the
    same symmetric matrix in Fortran order), so the eigenvectors overwrite
    it: no input copy and no separate output array, about 3 (L+1)^2 doubles
    where numpy's eigh takes about 5.
    """
    from scipy.linalg import eigh  # scipy is needed only by the oracles

    w, v = eigh(_dense_block(params, K).T, driver="evd", overwrite_a=True)
    return BlockSpectrum(K=float(K), eigenvalues=w, weights=np.abs(v[0, :]) ** 2)


def dense_block_eigenvalues(params: ModelParams, K: float) -> np.ndarray:
    """Eigenvalues only (ascending); cheaper than the full decomposition."""
    return np.linalg.eigvalsh(_dense_block(params, K))


# ---------------------------------------------------------------------------
# Chebyshev propagation over a batch of K blocks


#: Bytes of one (blocks, L) complex array of the Chebyshev recursion; its
#: five arrays of that size (1.25 MiB) then fit in a 2 MiB L2 cache.
_CACHE_BYTES = 1 << 18


def _apply_blocks(diag, e_gap, w, phi, psi_e):
    """One Hamiltonian application on stacked block states."""
    return (diag * phi + w * psi_e[:, None],
            e_gap * psi_e + w * phi.sum(axis=1))


def chebyshev_evolve_blocks(diag: np.ndarray, e_gap: np.ndarray, coupling: float,
                            phi0: np.ndarray, psi_e0: np.ndarray, t: float
                            ) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H t) on (n_blocks, L) photon + (n_blocks,) excited amplitudes.

    Each block Hamiltonian is diagonal plus a border column of `coupling`;
    the spectrum is rigorously contained in [min diag - |Omega|,
    max diag + |Omega|] with |Omega| = coupling * sqrt(L), which fixes the
    Chebyshev scaling.  Terms are summed until the Bessel coefficients fall
    below 1e-16, so the result carries no time-step error (at t = 0 one
    term with coefficient 1 remains).  The blocks are independent, so they
    are summed a few at a time, sized so that the recursion's arrays stay
    in cache; the result does not depend on the grouping.
    """
    from scipy.special import jv  # scipy is needed only by the oracles

    n_blocks, L = phi0.shape
    om = abs(coupling) * math.sqrt(L)
    lo = min(float(diag.min()), float(e_gap.min())) - om
    hi = max(float(diag.max()), float(e_gap.max())) + om
    a = 0.5 * (hi + lo)
    b = 0.5 * (hi - lo) * (1.0 + 1e-9) + 1e-12

    bt = b * t
    n_est = int(bt + 14.0 * (bt + 20.0) ** (1.0 / 3.0) + 25.0)
    orders = np.arange(n_est + 1)
    bessel = jv(orders, bt)
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


def _chebyshev_sum(coef, sdiag, sgap, sw, phi0, psi_e0):
    """sum_n coef_n T_n(H) (phi0, psi_e0) for the scaled blocks H."""
    n_terms = coef.size
    pm1, em1 = phi0.astype(complex), psi_e0.astype(complex)
    p0_, e0_ = _apply_blocks(sdiag, sgap, sw, pm1, em1)
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
    photon_momenta: np.ndarray
    photon_occupation: np.ndarray
    n_blocks: int
    t_final: float


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
    # closed grid.
    m_idx = np.arange(L)
    j_idx = grid_sub_index(m_idx[:, None], m_idx[None, :], L)
    amp_full = a_ph[None, :] * b_qb[j_idx]
    block_w = np.sum(np.abs(amp_full) ** 2, axis=1)
    keep = np.flatnonzero(block_w > 1e-16 * block_w.max())
    phi0 = amp_full[keep]
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
        photon_momenta=p,
        photon_occupation=n_p,
        n_blocks=int(keep.size),
        t_final=float(t_final),
    )
