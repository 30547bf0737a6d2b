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
module (xi positive semi-definite by construction, which makes the map CPTP).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._quad import DEFAULT_QUAD
from .bath import (
    bath_list,
    integrated_S_matrix,
    integrated_gamma_matrix,
    pair_measure,
    redfield_pair_matrices,
)
from .errors import (
    DegenerateSteadyStateError,
    NumericsError,
    ValidationError,
)
from .operators import require_hermitian

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


def _left(a):
    return np.kron(np.eye(a.shape[0]), a)


def _right(b):
    return np.kron(b.T, np.eye(b.shape[0]))


def _sandwich(l, r):
    # L rho R -> (R^T kron L)
    return np.kron(r.T, l)


def commutator_superop(h):
    """Superoperator of -i[H, .]."""
    return -1j * (_left(h) - _right(h))


def _assemble(jumps, kmat, smat):
    """lam^2-part of the generator for coefficient arrays over the stacked jump index.

    Index I runs over (coupling, Bohr frequency) in jump order, A_I = A_a(w);
    the result is -i[sum S_IJ A_I^dag A_J, .] + sum K_IJ (A_J . A_I^dag
    - {A_I^dag A_J, .}/2).
    """
    ops = np.array([j.op(w) for j in jumps for w in j.frequencies])
    d = ops.shape[1]
    hs = np.einsum("ij,iyx,jyz->xz", smat, ops.conj(), ops, optimize=True)
    hk = np.einsum("ij,iyx,jyz->xz", kmat, ops.conj(), ops, optimize=True)
    sandwich = np.einsum("ij,ipr,jqs->pqrs", kmat, ops.conj(), ops, optimize=True)
    return (commutator_superop(hs) + sandwich.reshape(d * d, d * d)
            - 0.5 * (_left(hk) + _right(hk)))


def _stacked_frequencies(jumps):
    return np.array([w for j in jumps for w in j.frequencies])


def _coefficients(jumps, baths, pair, t, config):
    """Stacked (K, S) arrays; pair(measure, freqs, t, config) -> (K, S) blocks over freqs.

    Each coupling pair that shares a bath gets the block of its frequency
    union (the integrated tables depend on, and are cached by, that list),
    sliced to the rows of coupling a and the columns of coupling b; pairs on
    independent baths stay zero.  `baths` holds one bath per coupling.
    """
    offsets = np.cumsum([0] + [len(j.frequencies) for j in jumps])
    kmat = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    smat = np.zeros_like(kmat)
    for a, ja in enumerate(jumps):
        for b, jb in enumerate(jumps):
            m = pair_measure(baths, a, b)
            if m is None:
                continue
            freqs = tuple(sorted(set(ja.frequencies) | set(jb.frequencies)))
            block = np.ix_([freqs.index(w) for w in ja.frequencies],
                           [freqs.index(w) for w in jb.frequencies])
            k, s = pair(m, freqs, t, config)
            rows = slice(offsets[a], offsets[a + 1])
            cols = slice(offsets[b], offsets[b + 1])
            kmat[rows, cols] = k[block]
            smat[rows, cols] = s[block]
    return kmat, smat


def dissipative_generator(jumps, kmat, dyn):
    """lam^2-part of the generator for coefficient accessors kmat/dyn(a,b,w,w')."""
    index = [(a, w) for a, j in enumerate(jumps) for w in j.frequencies]
    k = np.array([[kmat(a, b, w, wp) for b, wp in index] for a, w in index], dtype=complex)
    s = np.array([[dyn(a, b, w, wp) for b, wp in index] for a, w in index], dtype=complex)
    return _assemble(jumps, k, s)


def _checked_baths(jumps, baths, lam):
    """Every builder's argument rule, run before any early return: lam >= 0, one bath per coupling."""
    if lam < 0:
        raise ValidationError("coupling constant must be nonnegative")
    return bath_list(baths, len(jumps))


def build_redfield_generator(h0, jumps, baths, lam, t=np.inf, config=DEFAULT_QUAD):
    """Schroedinger-picture Bloch-Redfield generator at time t (default long-time)."""
    baths = _checked_baths(jumps, baths, lam)
    h = require_hermitian(h0, name="H0")
    gen = commutator_superop(h)
    if lam > 0:
        coeffs = _coefficients(jumps, baths, redfield_pair_matrices, t, config)
        gen = gen + lam**2 * _assemble(jumps, *coeffs)
    return Superoperator(h.shape[0], gen)


def interaction_redfield_generator(jumps, baths, lam, t, config=DEFAULT_QUAD):
    """Interaction-picture Bloch-Redfield generator: coefficients carry e^{i(w-w')t}."""
    baths = _checked_baths(jumps, baths, lam)
    kmat, smat = _coefficients(jumps, baths, redfield_pair_matrices, t, config)
    f = _stacked_frequencies(jumps)
    phase = np.exp(1j * (f[:, None] - f[None, :]) * t)
    gen = _assemble(jumps, phase * kmat, phase * smat)
    return Superoperator(jumps[0].dim, lam**2 * gen)


def build_davies_generator(h0, jumps, baths, lam, config=DEFAULT_QUAD):
    """Davies generator: secular (w = w') coefficients only; thermalises to Gibbs(H0)."""
    baths = _checked_baths(jumps, baths, lam)
    h = require_hermitian(h0, name="H0")

    # the w = w' entries of the long-time pair are exactly gamma(w) and S(w)
    kmat, smat = _coefficients(jumps, baths, redfield_pair_matrices, np.inf, config)
    stacked = _stacked_frequencies(jumps)
    secular = stacked[:, None] == stacked[None, :]
    kmat, smat = np.where(secular, kmat, 0.0), np.where(secular, smat, 0.0)
    # per-frequency Kossakowski matrix must be PSD (diagnostic for bad spectra)
    for w in sorted(set(stacked)):
        at_w = np.flatnonzero(stacked == w)
        kw = kmat[np.ix_(at_w, at_w)]
        low = np.linalg.eigvalsh(0.5 * (kw + kw.conj().T)).min()
        if low < -1e-10 * max(1.0, np.abs(kw).max()):
            raise NumericsError(
                f"secular Kossakowski matrix at w = {w:g} is not PSD (min eig {low:.2e})"
            )

    gen = commutator_superop(h)
    if lam > 0:
        gen = gen + lam**2 * _assemble(jumps, kmat, smat)
    return Superoperator(h.shape[0], gen)


def _integrated_pair(measure, freqs, t, config):
    return (integrated_gamma_matrix(measure, freqs, t, config),
            integrated_S_matrix(measure, freqs, t, config))


def build_cumulant_exponent(h0, jumps, baths, lam, t, config=DEFAULT_QUAD):
    """Interaction-picture cumulant exponent K_t (zero superoperator at t = 0)."""
    if t < 0:
        raise ValidationError("t must be nonnegative")
    baths = _checked_baths(jumps, baths, lam)
    h = require_hermitian(h0, name="H0")
    dim = h.shape[0]
    if t == 0 or lam == 0:
        return Superoperator(dim, np.zeros((dim * dim, dim * dim), dtype=complex))
    gen = _assemble(jumps, *_coefficients(jumps, baths, _integrated_pair, t, config))
    return Superoperator(dim, lam**2 * gen)


def frame_rotation(h0, t):
    """Superoperator of X -> e^{-iH0 t} X e^{+iH0 t}."""
    h = require_hermitian(h0, name="H0")
    u = expm(-1j * h * t)
    return Superoperator(h.shape[0], _sandwich(u, u.conj().T))


def cumulant_map(h0, jumps, baths, lam, t, config=DEFAULT_QUAD):
    """Schroedinger-picture cumulant dynamical map e^{-iH0t} exp(K_t) e^{+iH0t}."""
    k = build_cumulant_exponent(h0, jumps, baths, lam, t, config)
    rot = frame_rotation(h0, t)
    return Superoperator(k.dim, rot.matrix @ expm(k.matrix))


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
    try:
        prop = expm(superop.matrix * t)
    except (ValueError, FloatingPointError) as exc:
        raise NumericsError(f"superoperator exponential failed: {exc}") from None
    if not np.all(np.isfinite(prop)):
        raise NumericsError("superoperator exponential overflowed")
    return unvectorize(prop @ vectorize(rho))


def choi_matrix(superop):
    """Choi matrix sum_ij |i><j| kron M(|i><j|); the map is CP iff it is PSD."""
    d = superop.dim
    # C[(i,k),(j,l)] = M(|i><j|)[k,l] = M[k + l d, i + j d]
    c = superop.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    return 0.5 * (c + c.conj().T)


def steady_state_of_generator(superop, null_tol=1e-10):
    """Unit-trace Hermitian null vector of a trace-preserving generator.

    Raises DegenerateSteadyStateError when the null space has dimension > 1
    (tie-breaking is never silent) and NumericsError when the null vector has
    no positive unit-trace representative.
    """
    mat = superop.matrix
    _, s, vh = np.linalg.svd(mat)
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
