"""Superoperators: Bloch-Redfield / Davies generators, cumulant map, diagnostics.

Vectorisation is column-stacking, vec(rho) = rho.flatten(order="F"), so
A rho B maps to (B^T kron A) vec(rho).  The master-equation generator in the
Schroedinger picture is

  L[rho] = -i[H0, rho] + lam^2 sum_{a,b; w,w'} ( i S_ab(w,w',t) [rho, A_a(w)^dag A_b(w')]
           + K_ab(w,w',t) ( A_b(w') rho A_a(w)^dag - {A_a(w)^dag A_b(w'), rho}/2 ) )

with (K, S) = (gamma, S) finite-time Bloch-Redfield coefficients, their
t -> oo limits, or the secular Davies coefficients.  The cumulant map is
rho(t) = e^{-iH0 t} exp(K_t) e^{+iH0 t} with the interaction-picture exponent

  K_t = lam^2 sum ( i Xi_ab(w,w',t) [rho, A_a(w)^dag A_b(w')]
        + xi_ab(w,w',t) ( A_b(w') rho A_a(w)^dag - {.,.}/2 ) ),

where xi and Xi are the time-integrated coefficient matrices from the bath
module.  Every builder tabulates its coefficients once per bath with
`bath.stacked_tables`, over the sorted union of the Bohr frequencies of that
bath's couplings, and selects the stacked (coupling, frequency) entries from
that one table.  So xi is one Gram matrix per bath, positive semi-definite by
construction for any number of couplings, which makes the map CPTP.
"""

from dataclasses import dataclass

import numpy as np

from ._quad import DEFAULT_QUAD
from .bath import (
    bath_list,
    integrated_S_matrix,
    integrated_gamma_matrix,
    redfield_pair_matrices,
    stacked_tables,
)
from .errors import (
    DegenerateSteadyStateError,
    NumericsError,
    ValidationError,
)
from .operators import _contract, _stacked_jumps, require_hermitian

__all__ = [
    "Superoperator",
    "vectorize",
    "unvectorize",
    "commutator_superop",
    "build_redfield_generator",
    "build_davies_generator",
    "interaction_redfield_generator",
    "build_cumulant_exponent",
    "cumulant_map",
    "propagate",
    "choi_matrix",
    "steady_state_of_generator",
    "thermal_state",
    "validate_density_matrix",
]


def vectorize(rho):
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvectorize(v):
    d = round(np.sqrt(v.size))
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Dense d^2 x d^2 matrix acting on column-stacked density matrices."""

    dim: int
    matrix: np.ndarray

    def apply(self, rho):
        return unvectorize(self.matrix @ vectorize(rho))

    def trace_defect(self):
        """Norm of the dual action on the identity; 0 for trace-preserving generators."""
        idv = vectorize(np.eye(self.dim))
        return float(np.linalg.norm(idv.conj() @ self.matrix))


def _sandwich(l, r):
    # L rho R -> (R^T kron L)
    return np.kron(r.T, l)


def commutator_superop(h):
    """Superoperator of -i[H, .]."""
    one = np.eye(h.shape[0])
    return -1j * (_sandwich(h, one) - _sandwich(one, h))


def _assemble(jumps, kmat, smat):
    """lam^2-part of the generator for coefficient arrays over the stacked jump index.

    I is the index of `operators._stacked_jumps`, A_I = A_a(w); the result is
    -i[sum S_IJ A_I^dag A_J, .] + sum K_IJ (A_J . A_I^dag - {A_I^dag A_J, .}/2).
    """
    ops = _stacked_jumps(jumps)[2]
    d = ops.shape[1]
    one = np.eye(d)
    hs, hk = _contract(smat, ops), _contract(kmat, ops)
    sandwich = np.einsum("ij,ipr,jqs->pqrs", kmat, ops.conj(), ops, optimize=True)
    return (commutator_superop(hs) + sandwich.reshape(d * d, d * d)
            - 0.5 * (_sandwich(hk, one) + _sandwich(one, hk)))


def _generator(h0, jumps, baths, lam, pair, t, config, free=True):
    """The one path of every builder.

    The argument rules run before any early return: t >= 0 (NaN rejected),
    at least one coupling, lam >= 0, one bath per coupling, H0 Hermitian
    (h0 = None, the interaction picture, takes the dimension from the jumps).
    The result is -i[H0, .] when `free` (else zero) plus, for lam > 0 and
    t > 0 (the dissipator vanishes at either zero), lam^2 times the dissipator
    of the coefficient arrays `pair` tabulates at t; a sum that overflows
    raises NumericsError.
    """
    if not t >= 0:
        raise ValidationError("t must be nonnegative")
    if not jumps:
        raise ValidationError("no couplings to tabulate")
    lam = float(lam)
    if not (lam >= 0 and np.isfinite(lam * lam)):
        raise ValidationError("coupling constant must be nonnegative, with a finite square")
    baths = bath_list(baths, len(jumps))
    h = np.zeros((jumps[0].dim,) * 2) if h0 is None else require_hermitian(h0, name="H0")
    gen = commutator_superop(h) if free else np.zeros((h.size, h.size), dtype=complex)
    if lam > 0 and t > 0:
        kmat, smat = stacked_tables(jumps, baths, lambda m, f: pair(m, f, t, config))[0]
        with np.errstate(over="ignore", invalid="ignore"):
            gen += lam**2 * _assemble(jumps, kmat, smat)
        if not np.isfinite(gen).all():
            raise NumericsError("generator is not finite")
    return Superoperator(h.shape[0], gen)


def build_redfield_generator(h0, jumps, baths, lam, t=np.inf, config=DEFAULT_QUAD):
    """Schroedinger-picture Bloch-Redfield generator at time t (default long-time)."""
    return _generator(h0, jumps, baths, lam, redfield_pair_matrices, t, config)


def _interaction_pair(measure, freqs, t, config):
    k, s = redfield_pair_matrices(measure, freqs, t, config)
    f = np.array(freqs)
    phase = np.exp(1j * (f[:, None] - f[None, :]) * t)
    return phase * k, phase * s


def interaction_redfield_generator(jumps, baths, lam, t, config=DEFAULT_QUAD):
    """Interaction-picture Bloch-Redfield generator: coefficients carry e^{i(w-w')t}."""
    return _generator(None, jumps, baths, lam, _interaction_pair, t, config, free=False)


def _secular_pair(measure, freqs, t, config):
    """The w = w' entries of the long-time pair, exactly gamma(w) and S(w).

    Each per-frequency Kossakowski block of the stacked matrix is gamma(w)
    times a matrix of ones per bath, so it is PSD iff gamma(w) >= 0; a
    negative rate (a bad spectrum) raises NumericsError.
    """
    k, s = redfield_pair_matrices(measure, freqs, t, config)
    rates = k.diagonal().real
    low = rates.argmin()
    if rates[low] < -1e-10 * max(1.0, np.abs(rates).max()):
        raise NumericsError(
            f"secular rate at w = {freqs[low]:g} is negative ({rates[low]:.2e}): "
            "the Kossakowski matrix is not PSD"
        )
    return np.diag(k.diagonal()), np.diag(s.diagonal())


def build_davies_generator(h0, jumps, baths, lam, config=DEFAULT_QUAD):
    """Davies generator: secular (w = w') coefficients only; thermalises to Gibbs(H0)."""
    return _generator(h0, jumps, baths, lam, _secular_pair, np.inf, config)


def _integrated_pair(measure, freqs, t, config):
    return (integrated_gamma_matrix(measure, freqs, t, config),
            integrated_S_matrix(measure, freqs, t, config))


def build_cumulant_exponent(h0, jumps, baths, lam, t, config=DEFAULT_QUAD):
    """Interaction-picture cumulant exponent K_t (zero superoperator at t = 0)."""
    return _generator(h0, jumps, baths, lam, _integrated_pair, t, config, free=False)


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the [13/13] Pade
# coefficients b_0..b_13 and theta_13, the largest 1-norm at which the
# approximant's backward error stays below the double-precision unit roundoff.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _checked_expm(m):
    """Matrix exponential by scaling and squaring with the [13/13] Pade approximant.

    m is scaled by 2^-s so its 1-norm is at most theta_13, the approximant
    r = (V - U)^{-1} (V + U) = 1 + 2 (V - U)^{-1} U is formed from A^2, A^4,
    A^6 and squared s times; the second form makes exp(0) exactly the identity.
    A non-finite input or result, or a singular V - U, raises NumericsError.
    """
    a = np.asarray(m)
    if not np.all(np.isfinite(a)):
        raise NumericsError("superoperator exponential of a non-finite matrix")
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0 else 0
    a = a * 0.5**s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    try:
        out = ident + 2.0 * np.linalg.solve(v - u, u)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"superoperator exponential failed: {exc}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise NumericsError("superoperator exponential is not finite")
    return out


def cumulant_map(h0, jumps, baths, lam, t, config=DEFAULT_QUAD):
    """Schroedinger-picture cumulant dynamical map e^{-iH0t} exp(K_t) e^{+iH0t}."""
    k = build_cumulant_exponent(h0, jumps, baths, lam, t, config)
    vals, vecs = np.linalg.eigh(require_hermitian(h0, name="H0"))
    u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    return Superoperator(k.dim, _sandwich(u, u.conj().T) @ _checked_expm(k.matrix))


def validate_density_matrix(rho, tol=1e-12):
    r = require_hermitian(rho, tol, name="density matrix")
    if abs(np.trace(r) - 1.0) > 1e-10:
        raise ValidationError(f"density matrix trace {np.trace(r).real:.12f} != 1")
    return r


def propagate(superop, rho0, t=None):
    """Propagate rho0 with a generator (finite t) or apply a ready-made map (t=None)."""
    rho = validate_density_matrix(rho0)
    if t is None:
        return superop.apply(rho)
    if t < 0:
        raise ValidationError("t must be nonnegative")
    return unvectorize(_checked_expm(superop.matrix * t) @ vectorize(rho))


def choi_matrix(superop):
    """Choi matrix sum_ij |i><j| kron M(|i><j|); the map is CP iff it is PSD."""
    d = superop.dim
    # C[(i,k),(j,l)] = M(|i><j|)[k,l] = M[k + l d, i + j d]
    c = superop.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    return 0.5 * (c + c.conj().T)


def steady_state_of_generator(superop, null_tol=1e-10):
    """Unit-trace Hermitian null vector of a trace-preserving generator.

    Raises DegenerateSteadyStateError when the null space has dimension > 1
    (tie-breaking is never silent) and NumericsError when the generator is not
    finite, its SVD fails, or the null vector has no positive unit-trace
    representative.
    """
    mat = superop.matrix
    if not np.isfinite(mat).all():
        raise NumericsError("generator is not finite")
    try:
        _, s, vh = np.linalg.svd(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"generator SVD failed: {exc}") from None
    smax = s[0] if s.size else 0.0
    null_rows = np.where(s <= null_tol * max(smax, 1e-300))[0]
    if null_rows.size == 0:
        raise NumericsError("generator has no null vector at the working tolerance")
    if null_rows.size > 1:
        raise DegenerateSteadyStateError(
            f"steady state not unique: null-space dimension {null_rows.size}"
        )
    x = unvectorize(vh[null_rows[0]].conj())
    x = 0.5 * (x + x.conj().T)
    tr = np.trace(x).real
    if abs(tr) < 1e-12 * np.linalg.norm(x):
        raise NumericsError("null vector is traceless; no density-matrix candidate")
    rho = x / tr
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise NumericsError("steady-state candidate is not positive semi-definite")
    return rho


def thermal_state(h, beta):
    """Gibbs state e^{-beta H} / Z via eigendecomposition, as a complex array; a real H
    (no imaginary part) is diagonalised in real arithmetic."""
    m = require_hermitian(h, name="H")
    vals, vecs = np.linalg.eigh(m.real if not m.imag.any() else m)
    w = np.exp(-beta * (vals - vals.min()))
    w /= w.sum()
    return np.asarray((vecs * w) @ vecs.conj().T, dtype=complex)
