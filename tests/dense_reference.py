"""Dense-block references shared by the dynamics and oracle tests: long-double
refined emitter weights and a hypothesis strategy of (params, K) blocks."""

import math

import numpy as np
from hypothesis import strategies as st

from wqed_mobile import ModelParams, momentum_grid
from wqed_mobile.dynamics import block_hamiltonian


def refined_dense_weights(params, K, cluster):
    """Emitter weights |<K|v_n>|^2 of the dense eigh, refined by one step of
    Ogita & Aishima (Japan J. Ind. Appl. Math. 35, 1007 (2018)) in long double.

    eigh alone errs by ~eps ||h|| / gap: 2e-10 for two states 8.9e-7 apart when
    a pole meets the emitter level at Omega = e^-13.  The step leaves pairs
    closer than `cluster` unmixed, so only sums over such clusters hold.
    """
    h = block_hamiltonian(params, K)
    x = np.linalg.eigh(h)[1].astype(np.longdouble)
    r = np.eye(params.L + 1, dtype=np.longdouble) - x.T @ x
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
