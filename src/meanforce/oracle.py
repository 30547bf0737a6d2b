"""Exact few-mode verification: reduced Gibbs states and effective Hamiltonians.

A truncated bosonic environment H_R = sum_k W_k a_k^dag a_k with coupling
R = sum_k g_k (a_k + a_k^dag) is small enough to diagonalise exactly.  The
reduced Gibbs state Tr_R e^{-beta H} / Tr e^{-beta H} then defines an
effective Hamiltonian -(1/beta) log rho whose traceless part converges to
traceless(H0 + lam^2 H_mf) as lam -> 0; the lam-scaling of the residual is
the end-to-end check of the second-order mean-force formula, with the
matching spectral measure being the same modes' Bose-weighted atom pairs.
"""

from dataclasses import dataclass

import numpy as np

from .bath import DiscreteBath
from .errors import DomainError, ResourceError, ValidationError
from .generators import thermal_state
from .operators import require_hermitian

__all__ = [
    "TruncatedBath",
    "matching_bath",
    "exact_reduced_gibbs",
    "effective_hamiltonian",
    "scaling_exponent",
    "traceless",
]

MAX_TOTAL_DIMENSION = 4096


@dataclass(frozen=True)
class TruncatedBath:
    """Few bosonic modes (W_k, g_k) with a Fock-space cutoff per mode."""

    modes: tuple
    fock_cutoff: int = 7

    def __post_init__(self):
        if self.fock_cutoff < 2:
            raise ValidationError("fock_cutoff must be at least 2")
        modes = tuple((float(w), float(g)) for w, g in self.modes)
        if any(w <= 0 for w, _ in modes):
            raise ValidationError("mode frequencies must be positive")
        object.__setattr__(self, "modes", modes)

    @property
    def levels(self):
        return self.fock_cutoff + 1

    def dimension(self):
        return self.levels ** len(self.modes)


def matching_bath(truncated, beta):
    """DiscreteBath whose spectral atoms describe the same reservoir.

    Bose factors use the untruncated occupation numbers; pick the cutoff so
    the truncation error is negligible (beta * W_k >= 2 keeps it far below
    the lam^4 scale probed by the scaling test).
    """
    return DiscreteBath(beta=beta, modes=truncated.modes)


def _mode_operators(truncated):
    n = truncated.levels
    a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
    num = np.diag(np.arange(n)).astype(complex)
    ident = np.eye(n, dtype=complex)

    def embed(op, k):
        mats = [ident] * len(truncated.modes)
        mats[k] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    h_r = sum(w * embed(num, k) for k, (w, _) in enumerate(truncated.modes))
    r = sum(g * embed(a + a.conj().T, k) for k, (_, g) in enumerate(truncated.modes))
    return h_r, r


def exact_reduced_gibbs(h0, coupling, truncated, beta, lam):
    """Reduced Gibbs state Tr_R[e^{-beta H}] / Tr[e^{-beta H}] of system + modes.

    The Gibbs state of H = H0 + H_R + lam S R is `generators.thermal_state`;
    the partial trace over the modes is one einsum.
    """
    hs = require_hermitian(h0, name="H0")
    s = require_hermitian(coupling, name="coupling operator")
    d = hs.shape[0]
    dim_b = truncated.dimension()
    if d * dim_b > MAX_TOTAL_DIMENSION:
        raise ResourceError(
            f"total dimension {d * dim_b} exceeds guard {MAX_TOTAL_DIMENSION}"
        )
    h_r, r = _mode_operators(truncated)
    h = (
        np.kron(hs, np.eye(dim_b))
        + np.kron(np.eye(d), h_r)
        + lam * np.kron(s, r)
    )
    return np.einsum("ikjk->ij", thermal_state(h, beta).reshape(d, dim_b, d, dim_b))


def traceless(op):
    m = np.asarray(op, dtype=complex)
    return m - (np.trace(m) / m.shape[0]) * np.eye(m.shape[0])


def effective_hamiltonian(rho, beta):
    """-(1/beta) log rho, returned traceless for convention-free comparison.

    The logarithm of the Hermitian part of rho is taken on its eigenbasis,
    -V log(lambda) V^dag / beta, which needs every eigenvalue positive.
    """
    r = np.asarray(rho, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (r + r.conj().T))
    if vals.min() <= 0:
        raise DomainError("state is singular; effective Hamiltonian undefined")
    return traceless(-(vecs * np.log(vals)) @ vecs.conj().T / beta)


def scaling_exponent(xs, ys):
    """Least-squares slope of log y against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or xs.size != ys.size:
        raise ValidationError("need at least 3 matched points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DomainError("scaling fit requires positive values")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
