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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ValidationError

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


@dataclass(frozen=True)
class UpsilonTable:
    """Coefficient table (alpha, beta, w, w') -> complex for one correction kind."""

    kind: str
    entries: dict = field(compare=False)

    def __post_init__(self):
        if self.kind not in VALID_TABLE_KINDS:
            raise ValidationError(f"unknown table kind {self.kind!r}")

    def value(self, alpha, beta, w, wp):
        return self.entries.get((alpha, beta, w, wp), 0.0)

    def scaled(self, c):
        return UpsilonTable(self.kind, {k: c * v for k, v in self.entries.items()})

    def validate_pairing(self, rel_tol=1e-9):
        """Check Y_ab(w,w') = conj(Y_ba(w',w)) and, for mean_force, symmetry in (w,w')."""
        scale = max((abs(v) for v in self.entries.values()), default=0.0)
        tol = rel_tol * max(scale, 1e-30)
        for (a, b, w, wp), v in self.entries.items():
            mate = self.entries.get((b, a, wp, w))
            if mate is None or abs(v - np.conj(mate)) > tol:
                raise ConsistencyError(f"hermiticity pairing violated at ({a},{b},{w:g},{wp:g})")
            if self.kind == "mean_force":
                sym = self.entries.get((a, b, wp, w))
                if sym is None or abs(v - sym) > tol:
                    raise ConsistencyError(f"mean-force symmetry violated at ({a},{b},{w:g},{wp:g})")


def _stacked_jumps(jumps):
    """The coupling a and Bohr frequency w of each stacked index I = (a, w), as arrays,
    and the jump operators A_I as an (N, d, d) stack."""
    coupling = np.array([a for a, j in enumerate(jumps) for _ in j.frequencies])
    freqs = np.array([w for j in jumps for w in j.frequencies])
    return coupling, freqs, np.array([j.ops[w] for j in jumps for w in j.frequencies])


def _contract(y, ops):
    """sum_IJ y_IJ A_I^dag A_J for an (N, N) array over the stacked index."""
    return np.einsum("ij,iyx,jyz->xz", y, ops.conj(), ops, optimize=True)


def _table_array(entries, jumps):
    """(y, freqs, ops): a coefficient dict's nonzero entries (a, b, w, w') -> v, a and b positions
    in `jumps`, on the stacked index; a frequency a coupling lacks raises as `JumpDecomposition.op`."""
    coupling, freqs, ops = _stacked_jumps(jumps)
    slot = {key: i for i, key in enumerate(zip(coupling.tolist(), freqs.tolist()))}
    y = np.zeros((freqs.size,) * 2, dtype=complex)
    for (a, b, w, wp), v in entries.items():
        if v == 0.0:
            continue
        if not (0 <= a < len(jumps) and 0 <= b < len(jumps)):
            raise ValidationError(f"table refers to unknown coupling index {a} or {b}")
        i, j = slot.get((a, w)), slot.get((b, wp))
        if i is None or j is None:
            jumps[a].op(w), jumps[b].op(wp)  # raises for the missing one
        y[i, j] = v
    return y, freqs, ops


def assemble_correction(table, jumps):
    """Assemble H = sum Y_ab(w,w') A_a(w)^dag A_b(w') from a coefficient table.

    For mean_force and steady_state kinds the result must come out Hermitian
    (to 1e-8 relative); a violation signals an inconsistent table.
    """
    y, _, ops = _table_array(table.entries, jumps)
    h = _contract(y, ops)
    if table.kind in ("mean_force", "steady_state"):
        scale = max(1.0, np.abs(h).max())
        if np.abs(h - h.conj().T).max() > 1e-8 * scale:
            raise ConsistencyError(f"{table.kind} table assembled to a non-Hermitian operator")
        h = 0.5 * (h + h.conj().T)
    return h
