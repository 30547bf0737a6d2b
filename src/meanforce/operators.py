"""Spectral and jump-operator decompositions, and correction-Hamiltonian assembly.

Conventions (hbar = k_B = 1 throughout):

* A Bohr frequency is omega = eps' - eps between eigenvalues of the bare
  Hamiltonian H0, and the jump operator for it is
  A(omega) = sum_{eps'-eps=omega} P(eps) A P(eps').
* The two-level system is taken as H0 = -(omega0/2) sigma_z, so basis index 0
  (the sigma_z = +1 state) is the ground state and eps1 - eps0 = omega0.
  A(+omega0) lowers the excited state into the ground state.
* The stacked jump index I = (a, w) runs over the couplings a in list order, then
  each one's Bohr frequencies in order (`_stacked_jumps`).  Every operator
  sum_{a,b,w,w'} Y_ab(w, w') A_a(w)^dag A_b(w'), a correction Hamiltonian or a
  generator's Hamiltonian part, is one contraction sum_IJ y_IJ A_I^dag A_J (`_contract`).
  `stacked_tables` fills the (N, N) coefficient arrays over that index from one
  table per bath (`bath_list` gives each coupling its bath).
"""

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ConsistencyError, NumericsError, ValidationError

HERMITICITY_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def tls_hamiltonian(omega0):
    """Bare qubit Hamiltonian -(omega0/2) sigma_z (index 0 is the ground state)."""
    return -0.5 * omega0 * SIGMA_Z


def pauli_coupling(x, y=0.0, z=0.0):
    """Coupling operator x sigma_x + y sigma_y + z sigma_z."""
    return x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z


def require_hermitian(matrix, tol=HERMITICITY_TOL, name="operator"):
    """Return the matrix as a finite complex square ndarray, or raise ValidationError."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    scale = max(1.0, np.abs(m).max())
    if np.abs(m - m.conj().T).max() > tol * scale:
        raise ValidationError(f"{name} is not Hermitian within tolerance {tol:g}")
    return m


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues of H0 clustered into degenerate groups, with projectors."""

    energies: tuple
    projectors: tuple
    tol: float

    @property
    def dim(self):
        return self.projectors[0].shape[0]

    def hamiltonian(self):
        return sum(e * p for e, p in zip(self.energies, self.projectors))


def spectral_decompose(h0, tol=1e-9):
    """Eigendecompose a Hermitian H0 into energies and degenerate-subspace projectors.

    Eigenvalues are merged into one cluster when consecutive gaps are at most
    tol * max(1, max|eps|); each cluster's representative is the mean of its
    members, so downstream Bohr-frequency lookups can use exact float equality.
    """
    if tol <= 0:
        raise ValidationError("degeneracy tolerance must be positive")
    m = require_hermitian(h0, name="H0")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(f"eigensolver failed: {exc}") from None

    thresh = tol * max(1.0, np.abs(vals).max() if len(vals) else 1.0)
    energies = []
    projectors = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > thresh:
            block = vecs[:, start:i]
            energies.append(float(np.mean(vals[start:i])))
            projectors.append(block @ block.conj().T)
            start = i
    return SpectralDecomposition(tuple(energies), tuple(projectors), tol)


@dataclass(frozen=True)
class JumpDecomposition:
    """Bohr-frequency decomposition of one coupling operator.

    frequencies are canonical representatives (exact-equality keys into ops);
    ops[w] is the block sum A(w) = sum_{eps'-eps=w} P(eps) A P(eps').
    """

    index: int
    frequencies: tuple
    ops: dict = field(compare=False)

    @property
    def dim(self):
        return next(iter(self.ops.values())).shape[0]

    def op(self, w):
        try:
            return self.ops[w]
        except KeyError:
            raise ValidationError(
                f"coupling {self.index} has no jump operator at frequency {w:g}"
            ) from None

    def total(self):
        return sum(self.ops.values())


def bohr_decompose(decomp, coupling, index=0):
    """Split a coupling operator into jump operators A(w) over Bohr frequencies.

    Frequencies are merged under the spectral decomposition's own tolerance and
    stored as cluster means.  The zero frequency is snapped to exactly 0.0 so
    A(-w) = A(w)^dag pairs close exactly.
    """
    a = require_hermitian(coupling, name="coupling operator")
    if a.shape[0] != decomp.dim:
        raise ValidationError(f"coupling dimension {a.shape[0]} != H0 dimension {decomp.dim}")
    energies = decomp.energies
    scale = max(1.0, max(abs(e) for e in energies))
    thresh = decomp.tol * scale

    raw = []  # (frequency, block)
    for i, ei in enumerate(energies):
        for j, ej in enumerate(energies):
            block = decomp.projectors[i] @ a @ decomp.projectors[j]
            if np.abs(block).max() > 1e-14 * max(1.0, np.abs(a).max()):
                raw.append((ej - ei, block))
    if not raw:
        raw.append((0.0, np.zeros_like(a)))

    raw.sort(key=lambda fb: fb[0])
    freqs = []
    ops = []
    for w, block in raw:
        if freqs and w - freqs[-1][-1] <= thresh:
            freqs[-1].append(w)
            ops[-1] = ops[-1] + block
        else:
            freqs.append([w])
            ops.append(block.copy())

    reps = [float(np.mean(group)) for group in freqs]
    reps = [0.0 if abs(r) <= thresh else r for r in reps]
    # symmetrise +w/-w representatives so conjugate lookups are exact
    for i, r in enumerate(reps):
        for j in range(i + 1, len(reps)):
            if reps[j] > 0 and abs(reps[j] + r) <= thresh:
                mean = 0.5 * (reps[j] - r)
                reps[i], reps[j] = -mean, mean
    return JumpDecomposition(index, tuple(reps), dict(zip(reps, ops)))


VALID_TABLE_KINDS = ("dynamical", "mean_force", "steady_state")


class UpsilonTable:
    """Coefficient table (alpha, beta, w, w') -> complex for one correction kind, as arrays over a
    stacked index I = (coupling, w): (N,) `coupling` and `freqs`, the (N, N) mask `held` of the entries
    it holds and their `values`, zero off it.  A dict's index is the sorted union of its keys' (a, w)
    and (b, w')."""

    def __init__(self, kind, entries):
        if kind not in VALID_TABLE_KINDS:
            raise ValidationError(f"unknown table kind {kind!r}")
        keys = np.array(list(entries), dtype=float).reshape(-1, 4)
        index, at = np.unique(np.r_[keys[:, ::2], keys[:, 1::2]], axis=0, return_inverse=True)
        at, n = tuple(at.reshape(2, -1)), len(index)
        self.kind, self.coupling, self.freqs = kind, index[:, 0].astype(int), index[:, 1]
        self.held, self.values = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=complex)
        self.held[at], self.values[at] = True, list(entries.values())

    @classmethod
    def _of_arrays(cls, kind, coupling, freqs, values, held):
        table = cls.__new__(cls)  # a checked kind; values are zero off held
        table.kind, table.coupling, table.freqs, table.values, table.held = kind, coupling, freqs, values, held
        return table

    @cached_property
    def entries(self):  # the read-only dict view of the held entries, zeros too, built on first access
        i, j = np.nonzero(self.held)
        a, w = self.coupling, self.freqs
        keys = zip(a[i].tolist(), a[j].tolist(), w[i].tolist(), w[j].tolist())
        return MappingProxyType(dict(zip(keys, self.values[i, j].tolist())))

    def _first(self, mask):  # '(a,b,w,w')' of the first set entry of an (N, N) mask, row by row
        for i, j in np.argwhere(mask)[:1]:
            return f"({self.coupling[i]},{self.coupling[j]},{self.freqs[i]:g},{self.freqs[j]:g})"

    def value(self, alpha, beta, w, wp):
        i, j = (np.flatnonzero((self.coupling == a) & (self.freqs == f)) for a, f in ((alpha, w), (beta, wp)))
        return complex(self.values[i[0], j[0]]) if i.size and j.size and self.held[i[0], j[0]] else 0.0

    def scaled(self, c):
        return UpsilonTable._of_arrays(self.kind, self.coupling, self.freqs, c * self.values, self.held)

    def validate_pairing(self, rel_tol=1e-9):
        """Check that the entries are finite, that Y_ab(w,w') = conj(Y_ba(w',w)) and, for mean_force,
        that Y_ab(w,w') = Y_ab(w',w); the message names the first failing entry."""
        v, held = self.values, self.held
        with np.errstate(invalid="ignore"):  # inf - inf; the non-finite entry is named first
            tol = rel_tol * max(np.abs(v).max(initial=0.0), 1e-30)
            ok = {"non-finite coefficient": np.isfinite(v),
                  "hermiticity pairing violated": held.T & (abs(v - v.T.conj()) <= tol)}
            if self.kind == "mean_force":  # Y_ab(w', w) sits at row (a, w') and column (b, w)
                (_, ci), (_, fi) = (np.unique(x, return_inverse=True) for x in (self.coupling, self.freqs))
                slot = np.full((ci.size,) * 2, -1)
                slot[ci, fi] = np.arange(ci.size)
                r, c = slot[ci[:, None], fi], slot[ci, fi[:, None]]
                ok["mean-force symmetry violated"] = (
                    (np.minimum(r, c) >= 0) & held[r, c] & (abs(v - v[r, c]) <= tol))
        for what, mask in ok.items():
            at = self._first(held & ~mask)
            if at:
                raise ConsistencyError(f"{what} at {at}")


def _stacked_jumps(jumps):
    """The coupling a and Bohr frequency w of each stacked index I = (a, w), as arrays,
    and the jump operators A_I as an (N, d, d) stack."""
    coupling = np.array([a for a, j in enumerate(jumps) for _ in j.frequencies])
    freqs = np.array([w for j in jumps for w in j.frequencies])
    return coupling, freqs, np.array([j.ops[w] for j in jumps for w in j.frequencies])


def _contract(y, ops):
    """sum_IJ y_IJ A_I^dag A_J for an (N, N) array over the stacked index."""
    return np.einsum("ij,iyx,jyz->xz", y, ops.conj(), ops, optimize=True)


def bath_list(baths, n):
    """One bath per coupling: a single bath (or one-element list) is shared by all n,
    a longer list must have length n; no coupling at all is an error."""
    if not n:
        raise ValidationError("no couplings to tabulate")
    if not isinstance(baths, (list, tuple)):
        baths = (baths,)
    if len(baths) == 1:
        return tuple(baths) * n
    if len(baths) != n:
        raise ValidationError(f"need one bath per coupling: {len(baths)} baths for {n} couplings")
    return tuple(baths)


def stacked_tables(coupling, freqs, baths, table):
    """Complex arrays (..., N, N) over a stacked (coupling, frequency) index given as
    two (N,) arrays, and the boolean mask of the index pairs whose couplings share a bath.

    table(bath, freqs), an (..., n, n) array, runs once per distinct bath object
    (baths[a] is coupling a's; equal parameters do not merge two objects) over the
    sorted union of its couplings' frequencies, and fills every entry between
    those couplings; the rest stay zero.
    """
    owner = np.array([id(baths[a]) for a in coupling])
    out = None
    for bath in {id(b): b for b in baths}.values():
        rows = np.flatnonzero(owner == id(bath))
        union, at = np.unique(freqs[rows], return_inverse=True)
        block = np.asarray(table(bath, tuple(union.tolist())))
        if out is None:
            out = np.zeros(block.shape[:-2] + (freqs.size,) * 2, dtype=complex)
        out[..., rows[:, None], rows] = block[..., at[:, None], at]
    return out, np.equal.outer(owner, owner)


def _table_array(table, jumps):
    """(y, held, freqs, ops): a table's values and mask mapped in O(N) onto `jumps`' stacked index (the
    identity for a built table); a non-finite entry, or a nonzero one at a key `jumps` lacks, raises."""
    coupling, freqs, ops = _stacked_jumps(jumps)
    at = table._first(~np.isfinite(table.values))
    if at:
        raise NumericsError(f"{table.kind} table has a non-finite coefficient at {at}")
    slot = dict(zip(zip(coupling.tolist(), freqs.tolist()), range(freqs.size)))
    to = np.array([slot.get(key, -1) for key in zip(table.coupling.tolist(), table.freqs.tolist())], dtype=int)
    lost = (to < 0) & ((table.values != 0) | (table.values.T != 0)).any(1)  # in a nonzero row or column
    for a, w in zip(table.coupling[lost].tolist(), table.freqs[lost].tolist()):  # raises at the first
        if not 0 <= a < len(jumps):
            raise ValidationError(f"table refers to unknown coupling index {a}")
        jumps[a].op(w)
    k = np.flatnonzero(to >= 0)
    y, held = (np.zeros((freqs.size,) * 2, dtype=x.dtype) for x in (table.values, table.held))
    y[to[k, None], to[k]], held[to[k, None], to[k]] = table.values[k[:, None], k], table.held[k[:, None], k]
    return y, held, freqs, ops


def assemble_correction(table, jumps):
    """Assemble H = sum Y_ab(w,w') A_a(w)^dag A_b(w') from a coefficient table.

    For mean_force and steady_state kinds the result must come out Hermitian
    (to 1e-8 relative); a violation signals an inconsistent table.
    """
    y, _, _, ops = _table_array(table, jumps)
    h = _contract(y, ops)
    if table.kind in ("mean_force", "steady_state"):
        scale = max(1.0, np.abs(h).max())
        if np.abs(h - h.conj().T).max() > 1e-8 * scale:
            raise ConsistencyError(f"{table.kind} table assembled to a non-Hermitian operator")
        h = 0.5 * (h + h.conj().T)
    return h
