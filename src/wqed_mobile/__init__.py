"""Waveguide QED with a quantum-mechanically mobile two-level emitter.

Single-excitation theory on a 1-D lattice: exact single-photon scattering,
in-gap photon-emitter bound states, and spontaneous-emission dynamics, each
cross-checked against brute-force numerical oracles.
"""

__version__ = "0.1.0"

from .errors import (
    BandEdgeSingularity,
    NoBoundState,
    NotEmbedded,
    NumericalFailure,
    OracleInvalid,
    ParameterError,
    SizeError,
)
from .model import (
    ModelParams,
    band_halfwidth,
    gap_energy,
    momentum_grid,
    omega_photon,
    omega_tilde,
    self_energy,
    v_emitter,
    v_photon,
    wrap,
    xi_emitter,
    z_of_K,
)
from .scattering import ScatterOutcome, scatter, sweep_scattering
from .boundstates import (
    BandScan,
    BoundState,
    WavefunctionField,
    band_scan,
    bound_wavefunctions,
    flatness_report,
    pole_residual,
    solve_bound_state,
)
from .dynamics import (
    EmissionWindows,
    KBlockTrajectory,
    LocalizedRun,
    PositionObservables,
    asymptotic_momenta,
    classify_regime_and_windows,
    evolve_fixed_K,
    evolve_localized,
    fit_exponential_rate,
    markov_rate,
    photon_spectrum_and_directionality,
    position_observables,
    spectrum_peaks,
)
from .oracle import (
    BlockSpectrum,
    WavepacketResult,
    dense_block_diagonalize,
    wavepacket_scattering_oracle,
)
