"""Exception types and the memory budget shared across the package."""

#: Memory budget of every dense request (matrices, eigenvectors, trajectories).
DEFAULT_MEMORY_BUDGET = 2 << 30


class ParameterError(ValueError):
    """A physical or numerical parameter violates its invariant."""


class BandEdgeSingularity(ArithmeticError):
    """Evaluation requested exactly at a band edge |E| = 2|z(K)|, where the
    self-energy diverges.  Raised instead of returning an overflowed value so
    that root brackets downstream are never corrupted."""


class NoBoundState(ValueError):
    """No bound state exists for the requested branch (only possible in the
    decoupled limit of vanishing emitter-photon coupling)."""


class NotEmbedded(ValueError):
    """The effective emitter energy lies outside the effective photon band,
    so the requested in-band quantity is undefined."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed to converge to its stated tolerance."""


class SizeError(RuntimeError):
    """The work of a request exceeds the memory budget: any work that
    check_memory charges (dense blocks, sweeps, bound-state solves, runs)."""


class OracleInvalid(UserWarning):
    """The wavepacket oracle was configured outside its validity window
    (e.g. packet overlapping a band edge); results may be unreliable."""


def check_memory(need: int, work: str, remedy: str) -> None:
    """Raise SizeError before allocating when `work` needs more than the budget."""
    if need > DEFAULT_MEMORY_BUDGET:
        raise SizeError(f"{work} needs ~{need / 2**20:.0f} MiB "
                        f"(budget {DEFAULT_MEMORY_BUDGET / 2**20:.0f} MiB); {remedy}")
