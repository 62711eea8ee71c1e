"""Lattice model of a waveguide photon coupled to a mobile two-level emitter.

Conventions used throughout the package:

* energies in units of the photon hopping J (J = 1 is the usual choice),
  times in 1/J, positions in integer lattice sites;
* momenta are dimensionless (units of inverse lattice spacing) and live on
  (-pi, pi]; the discrete grid is p_n = -pi + 2*pi*n/L with L even, which is
  closed under addition/subtraction of grid momenta;
* photon dispersion      omega_p = -2 J cos p,
  emitter dispersion     xi_k    = -2 J' cos k,
  effective band         omega_tilde(K, p) = omega_p + xi_{K-p}
                                           = -2 Re[z(K) e^{ip}],
  effective gap energy   E_{K,Delta} = Delta + xi_K,
  with z(K) = J + J' e^{-iK}.

The effective band at total momentum K spans [-2|z(K)|, +2|z(K)|].  The
self-energy of the dressed emitter level,

    Sigma_K(E) = Omega^2/(2 pi) * Integral dp / (E - omega_tilde(K, p)),

has the closed form sign(E) * Omega^2 / sqrt(E^2 - 4|z(K)|^2) outside the
band; inside the band the retarded value Sigma(E + i0+) is purely imaginary
with Im Sigma = -Omega^2 / sqrt(4|z(K)|^2 - E^2).  Its poles in the variable
y = e^{ip} are

    y_{+-} = [-E +- sqrt(E^2 - 4|z(K)|^2)] / (2 z(K)),

exactly one of which lies inside the unit circle for E outside the band.
"""

from __future__ import annotations

import math
import cmath
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BandEdgeSingularity, ParameterError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the coupled emitter-waveguide lattice.

    J     : photon hopping (> 0, sets the energy unit),
    Jp    : emitter hopping J' (>= 0),
    Delta : internal emitter splitting,
    Omega : emitter-photon coupling (>= 0),
    L     : number of lattice sites / momentum modes (even, >= 4).
    """

    J: float = 1.0
    Jp: float = 0.0
    Delta: float = 0.0
    Omega: float = 0.0
    L: int = 400

    def __post_init__(self):
        for name in ("J", "Jp", "Delta", "Omega"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite (got {value})")
        if not self.J > 0:
            raise ParameterError(f"J must be > 0 (got {self.J})")
        if self.Jp < 0:
            raise ParameterError(f"Jp must be >= 0 (got {self.Jp})")
        if self.Omega < 0:
            raise ParameterError(f"Omega must be >= 0 (got {self.Omega})")
        if self.L != int(self.L) or self.L < 4 or self.L % 2:
            raise ParameterError(
                f"L must be an even integer >= 4 (got {self.L}); evenness keeps "
                "the momentum grid closed under K - p"
            )
        object.__setattr__(self, "L", int(self.L))


def wrap(p):
    """Wrap momenta to the fundamental interval (-pi, pi]."""
    w = np.mod(p, TWO_PI)
    w = np.where(w > math.pi, w - TWO_PI, w)
    return w if np.ndim(p) else float(w)


def momentum_grid(L: int) -> np.ndarray:
    """Grid momenta p_n = -pi + 2*pi*n/L, n = 0..L-1."""
    return -math.pi + TWO_PI * np.arange(L) / L


def grid_add_index(i, j, L: int):
    """Grid index of p_i + p_j (exact integer arithmetic, L even)."""
    return (i + j - L // 2) % L


def grid_sub_index(i, j, L: int):
    """Grid index of p_i - p_j (exact integer arithmetic)."""
    return (i - j + L // 2) % L


def omega_photon(params: ModelParams, p):
    """Photon dispersion omega_p = -2 J cos p."""
    return -2.0 * params.J * np.cos(p)


def xi_emitter(params: ModelParams, k):
    """Emitter kinetic dispersion xi_k = -2 J' cos k."""
    return -2.0 * params.Jp * np.cos(k)


def v_photon(params: ModelParams, p):
    """Photon group velocity d(omega_p)/dp = 2 J sin p."""
    return 2.0 * params.J * np.sin(p)


def v_emitter(params: ModelParams, k):
    """Emitter group velocity d(xi_k)/dk = 2 J' sin k."""
    return 2.0 * params.Jp * np.sin(k)


def z_of_K(params: ModelParams, K):
    """Complex band amplitude z(K) = J + J' e^{-iK}.

    |z| ranges over [|J - J'|, J + J'] and 2|z(K)| is the half-width of the
    effective band at total momentum K.
    """
    return params.J + params.Jp * np.exp(-1j * np.asarray(K, dtype=float)[()])


def band_halfwidth(params: ModelParams, K):
    """Half-width 2|z(K)| of the effective band omega_tilde(K, .)."""
    return 2.0 * np.abs(z_of_K(params, K))


def omega_tilde(params: ModelParams, K, p):
    """Effective single-excitation band omega_p + xi_{K-p}."""
    return omega_photon(params, p) + xi_emitter(params, np.asarray(K) - np.asarray(p))


def gap_energy(params: ModelParams, K):
    """Effective emitter level E_{K,Delta} = Delta + xi_K."""
    return params.Delta + xi_emitter(params, K)


def band_extrema(params: ModelParams, K: float) -> tuple[float, float, float, float]:
    """Extrema of the effective band at fixed K.

    omega_tilde(K, p) = -2|z(K)| cos(p + arg z(K)), so the minimum -2|z| sits
    at p = -arg z and the maximum +2|z| at p = pi - arg z.

    Returns (E_min, E_max, p_min, p_max).
    """
    z = complex(z_of_K(params, K))
    phi = cmath.phase(z)
    b = 2.0 * abs(z)
    return -b, b, wrap(-phi), wrap(math.pi - phi)


@dataclass(frozen=True)
class SelfEnergyEval:
    """Self-energy Sigma_K(E) together with its pole structure.

    dsigma_dE is real and defined only outside the band (NaN inside).
    y_in / y_out are the poles of the y = e^{ip} integrand inside/outside the
    unit circle; for E inside the band both lie on the circle and the
    retarded prescription E -> E + i0+ decides which one counts as inner.
    """

    sigma: complex
    dsigma_dE: float
    y_in: complex
    y_out: complex
    band_halfwidth: float


def _poles(z: complex, E: float, b: float) -> tuple[complex, complex]:
    """Poles y_< (inside unit circle) and y_> (outside) at real energy E.

    Uses cancellation-free forms: for |E| > b the small root is written as
    -+ 2 conj(z) / (|E| + sqrt(E^2 - b^2)) so no precision is lost at large
    |E|.
    """
    if abs(E) > b:
        sq = math.sqrt((abs(E) - b) * (abs(E) + b))
        sign = math.copysign(1.0, E)
        y_in = -sign * 2.0 * z.conjugate() / (abs(E) + sq)
        y_out = -sign * (abs(E) + sq) / (2.0 * z)
    else:
        sq = math.sqrt((b - E) * (b + E))
        y_in = (-E + 1j * sq) / (2.0 * z)
        y_out = (-E - 1j * sq) / (2.0 * z)
    return y_in, y_out


def self_energy(params: ModelParams, K: float, E: float) -> SelfEnergyEval:
    """Closed-form self-energy of the dressed emitter level at (K, E).

    Outside the band:  Sigma = sign(E) Omega^2 / sqrt(E^2 - 4|z|^2), real,
    with derivative dSigma/dE = -Omega^2 |E| / (E^2 - 4|z|^2)^{3/2} < 0.
    Inside the band the retarded value is purely imaginary,
    Sigma(E + i0+) = -i Omega^2 / sqrt(4|z|^2 - E^2).

    Raises BandEdgeSingularity at |E| = 2|z(K)| exactly.
    """
    z = complex(z_of_K(params, K))
    b = float(band_halfwidth(params, K))
    delta = abs(E) - b
    if delta == 0.0:
        raise BandEdgeSingularity(
            f"self-energy diverges at the band edge |E| = 2|z(K)| = {b!r}"
        )
    y_in, y_out = _poles(z, E, b)
    root = math.sqrt(abs(delta)) * math.sqrt(abs(E) + b)  # sqrt|E^2 - 4|z|^2| > 0
    om2 = params.Omega**2  # where it underflows, Omega / root is formed first
    mag = om2 / root if om2 >= sys.float_info.min else params.Omega * (params.Omega / root)
    if delta > 0.0:
        sigma = complex(math.copysign(mag, E))
        dsigma = -mag / root / root * abs(E)
    else:
        sigma = -1j * mag
        dsigma = math.nan
    return SelfEnergyEval(
        sigma=sigma, dsigma_dE=dsigma, y_in=y_in, y_out=y_out, band_halfwidth=b
    )
