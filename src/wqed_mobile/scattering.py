"""Exact single-photon scattering off the mobile emitter.

An incoming photon p_i meeting a ground-state emitter k_i has two outgoing
channels at the same total momentum K_i = k_i + p_i and total energy
omega_tilde(K_i, p_i):

* elastic transmission with amplitude t, photon momentum unchanged;
* inelastic "reflection in the emitter frame" with amplitude r and photon
  momentum p_f2, the second root of the on-shell condition
  omega_tilde(K_i, p_f2) = omega_tilde(K_i, p_i).

With the signed linewidth  Gamma_i = Omega^2 / (2 J sin p_i - 2 J' sin k_i)
and the detuning  Delta_i = omega_tilde(K_i, p_i) - (Delta + xi_{K_i}),

    t = Delta_i / (Delta_i + i Gamma_i),     r = -i Gamma_i / (Delta_i + i Gamma_i),

which satisfy 1 + r = t and |t|^2 + |r|^2 = 1 identically.  When the two
initial group velocities coincide (J sin p_i = J' sin k_i) the linewidth
diverges and the Gamma -> infinity limit t = 0, r = -1 applies; such points
are flagged `degenerate` rather than dropped.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import (
    ModelParams,
    gap_energy,
    momentum_grid,
    omega_tilde,
    v_emitter,
    v_photon,
    wrap,
    xi_emitter,
    z_of_K,
)

log = logging.getLogger(__name__)

#: |J sin p_i - J' sin k_i| below this is treated as a velocity degeneracy.
DEGENERACY_TOL = 1e-12

#: Relative residual above which the sign-prefixed arccos root of p_f2 is
#: replaced by the exact second root.
BRANCH_TOL = 1e-10

#: Column order of the sweep table (fixed external schema).
SWEEP_COLUMNS = (
    "k_i", "p_i", "t_re", "t_im", "r_re", "r_im",
    "T", "R", "p_f2", "k_f2", "dE_qb", "degenerate",
)


@dataclass(frozen=True)
class ScatterOutcome:
    """Scattering amplitudes and kinematics for one (k_i, p_i) pair."""

    t: complex
    r: complex
    p_f2: float
    k_f2: float
    detuning: float
    gamma: float
    degenerate: bool


def _scatter_arrays(params: ModelParams, k_i: np.ndarray, p_i: np.ndarray):
    """Vectorized scattering kernel; returns a dict of flat arrays."""
    k_i = np.asarray(k_i, dtype=float)
    p_i = np.asarray(p_i, dtype=float)
    K = k_i + p_i
    z = z_of_K(params, K)
    absz2 = np.abs(z) ** 2
    energy = omega_tilde(params, K, p_i)
    detuning = energy - gap_energy(params, K)

    half_vdiff = params.J * np.sin(p_i) - params.Jp * np.sin(k_i)
    om2 = params.Omega**2
    # A decoupled emitter (Omega = 0) never scatters; the velocity-degeneracy
    # limit t=0, r=-1 is the Gamma -> infinity limit and needs Omega > 0.
    degenerate = (np.abs(half_vdiff) <= DEGENERACY_TOL) & (om2 > 0.0)
    gamma = np.where(degenerate, math.inf, om2 / (2.0 * np.where(
        np.abs(half_vdiff) > DEGENERACY_TOL, half_vdiff, 1.0)))
    safe_gamma = np.where(degenerate, 0.0, gamma)
    denom = detuning + 1j * safe_gamma
    # denom == 0 only when Omega = 0 exactly on resonance: free propagation.
    free = ~degenerate & (denom == 0.0)
    safe = np.where(degenerate | free, 1.0, denom)
    t = np.where(degenerate, 0.0 + 0.0j, np.where(free, 1.0 + 0.0j, detuning / safe))
    r = np.where(degenerate, -1.0 + 0.0j, np.where(free, 0.0j, -1j * safe_gamma / safe))

    # Inelastic momentum: sign-prefixed arccos, verified on-shell.  Where that
    # fails, and at a velocity degeneracy (p_i at a band extremum, whose
    # limiting second root is the same), take the exact root -p_i - 2 arg z(K).
    vdiff = v_emitter(params, k_i) - v_photon(params, p_i)
    arg = np.cos(p_i) - params.Jp * np.sin(K) * vdiff / absz2
    arg = np.clip(arg, -1.0, 1.0)
    sign = np.where(absz2 * np.sin(p_i) + vdiff * np.real(z) >= 0.0, 1.0, -1.0)
    p_f2 = sign * np.arccos(arg)
    res = np.abs(omega_tilde(params, K, p_f2) - energy)
    flip = res > BRANCH_TOL * np.maximum(1.0, np.abs(energy))
    if np.any(flip & ~degenerate):
        n_bad = int(np.count_nonzero(flip & ~degenerate))
        log.warning("arccos sign prefactor failed on-shell check at %d point(s); "
                    "selected the exact second root", n_bad)
    exact = degenerate | flip
    p_f2 = wrap(p_f2)
    p_f2[exact] = wrap(-p_i[exact] - 2.0 * np.angle(z[exact]))
    k_f2 = wrap(K - p_f2)

    return {
        "k_i": k_i,
        "p_i": p_i,
        "t_re": t.real,
        "t_im": t.imag,
        "r_re": r.real,
        "r_im": r.imag,
        "T": np.abs(t) ** 2,
        "R": np.abs(r) ** 2,
        "p_f2": p_f2,
        "k_f2": k_f2,
        "dE_qb": xi_emitter(params, k_f2) - xi_emitter(params, k_i),
        "degenerate": degenerate,
        "detuning": detuning,
        "gamma": gamma,
    }


def scatter(params: ModelParams, k_i: float, p_i: float) -> ScatterOutcome:
    """Scattering amplitudes for a single initial pair (k_i, p_i); warns at a
    velocity degeneracy, where it returns the limit t = 0, r = -1."""
    out = _scatter_arrays(params, np.array([k_i]), np.array([p_i]))
    degenerate = bool(out["degenerate"][0])
    if degenerate:
        warnings.warn(
            "initial photon and emitter group velocities are degenerate; "
            "returning the full-reflection limit t=0, r=-1",
            stacklevel=2,
        )
    return ScatterOutcome(
        t=complex(out["t_re"][0], out["t_im"][0]),
        r=complex(out["r_re"][0], out["r_im"][0]),
        p_f2=float(out["p_f2"][0]),
        k_f2=float(out["k_f2"][0]),
        detuning=float(out["detuning"][0]),
        gamma=float(out["gamma"][0]),
        degenerate=degenerate,
    )


def sweep_scattering(params: ModelParams, n_k: int, n_p: int) -> dict[str, np.ndarray]:
    """Scattering table over the (k_i, p_i) grid, row-major with p_i fastest.

    Grid points follow the momentum_grid convention (-pi + 2*pi*j/n), which
    is closed under negation modulo 2*pi.  Degenerate points are flagged in
    the `degenerate` column, never dropped, so the table stays rectangular.
    Returns a dict of flat arrays keyed by SWEEP_COLUMNS.
    """
    if n_k < 2 or n_p < 2:
        raise ParameterError(f"sweep grid sizes must be >= 2 (got {n_k} x {n_p})")
    k = momentum_grid(n_k)
    p = momentum_grid(n_p)
    kk, pp = np.meshgrid(k, p, indexing="ij")
    out = _scatter_arrays(params, kk.ravel(), pp.ravel())
    return {name: out[name] for name in SWEEP_COLUMNS}
