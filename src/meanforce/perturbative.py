"""Order-by-order steady-state machinery: tuple sums, g22/g40, TLS diagonal solve.

The stationarity condition is expanded in the coupling; at fourth order the
diagonal matrix elements give, per eigenstate k, a sum over frequency
four-tuples (eps_l-eps_k, eps_m-eps_l, eps_j-eps_m, eps_k-eps_j) of

    g22 + g40 = 0,

where g22 carries the second-order generator acting on the second-order state
correction, and g40 the genuinely fourth-order generator (zero for any master
equation of Bloch-Redfield form, nonzero for the cumulant map).

g22 is evaluated as

  g22(w1,w2,w3,w4) = Y_st(-w3,w4) a(w3+w4) e^{-b(w1+w2)} (i Y_dyn(-w1,w2) + K(-w1,w2)/2)
                   - Y_st(-w1,w2) a(w1+w2) (i Y_dyn(-w3,w4) - K(-w3,w4)/2)
                   - e^{-b w1} Y_st(-w2,w3) a(w2+w3) K(-w4,w1)

with a(w) = int_0^beta dt e^{-t w}.  The thermal weight e^{-b(w1+w2)} on the
first term is required for the reconstruction of L2[rho2] from the tuple
expansion (and for the seven-tuple cancellation); it is validated against the
direct operator computation in the tests.

g40 has two routes on the sigma_x qubit: the closed long-time form `g40_tls`,
and the direct oracle `g40_tls_direct`, the anchor's matrix element of
(1/2)[K_T, L_T] e^{-beta(H0 - E_k)} with the interaction-picture Redfield
generator L_s and K_T = int_0^T L_s ds, both assembled by
`generators._assemble` from C(s) on the oracle's own time grid.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._quad import DEFAULT_QUAD, _E
from .bath import _discretize, as_measure, measure_value
from .corrections import tls_time_integrated_balance
from .errors import DomainError, ValidationError
from .generators import _assemble, commutator_superop, thermal_state, unvectorize, vectorize
from .operators import (
    _contract,
    _stacked_jumps,
    _table_array,
    bohr_decompose,
    pauli_coupling,
    require_hermitian,
    spectral_decompose,
    tls_hamiltonian,
)

__all__ = [
    "alpha_weight",
    "FourTupleSet",
    "four_tuples",
    "g22_coefficient",
    "second_order_residual",
    "g40_tls",
    "g40_tls_direct",
    "fourth_order_solve_tls",
]


def alpha_weight(beta, w):
    """a(w) = int_0^beta dt e^{-tw} = (1 - e^{-beta w})/w, a(0) = beta."""
    if beta <= 0:
        raise ValidationError("beta must be positive")
    return float(_E(-w, beta))


@dataclass(frozen=True)
class FourTupleSet:
    """Frequency four-tuples G(|k> -> |k>) of one anchor eigenstate."""

    anchor: int
    tuples: tuple

    def zero_sum_defect(self):
        scale = max((max(abs(x) for x in t) for t in self.tuples), default=1.0)
        return max((abs(sum(t)) for t in self.tuples), default=0.0) / max(scale, 1e-300)


def four_tuples(energies, k):
    """All distinct tuples (e_l-e_k, e_m-e_l, e_j-e_m, e_k-e_j) over l, m, j."""
    energies = tuple(float(e) for e in energies)
    if not 0 <= k < len(energies):
        raise ValidationError(f"anchor index {k} out of range")
    ek = energies[k]
    tuples = ((energies[l] - ek, energies[m] - energies[l], energies[jj] - energies[m], ek - energies[jj])
              for l, m, jj in product(range(len(energies)), repeat=3))
    return FourTupleSet(k, tuple(dict.fromkeys(tuples)))


def g22_coefficient(kmat, dyn, st, w1, w2, w3, w4, beta):
    """Fourth-order coefficient from the second-order generator on rho_2.

    kmat/dyn/st are (w, w') -> complex accessors of the Kossakowski matrix,
    the dynamical coefficient and the steady-state correction table.
    """
    a34 = alpha_weight(beta, w3 + w4)
    a12 = alpha_weight(beta, w1 + w2)
    a23 = alpha_weight(beta, w2 + w3)
    return (
        st(-w3, w4) * a34 * math.exp(-beta * (w1 + w2))
        * (1j * dyn(-w1, w2) + 0.5 * kmat(-w1, w2))
        - st(-w1, w2) * a12 * (1j * dyn(-w3, w4) - 0.5 * kmat(-w3, w4))
        - math.exp(-beta * w1) * st(-w2, w3) * a23 * kmat(-w4, w1)
    )


def _rho2_matrix(h0, jumps, table, beta):
    """rho_2 = -rho_0 sum Y(w,w') a(w'-w) A^dag(w) A(w'), rho_0 = e^{-beta H0}/Z."""
    rho0 = thermal_state(h0, beta)
    y, _, freqs, ops = _table_array(table, jumps)
    i, j = np.nonzero(y)
    y[i, j] *= _E(freqs[i] - freqs[j], beta)  # a(w' - w) = E(w - w')
    return -rho0 @ _contract(y, ops), rho0


def second_order_residual(h0, jumps, baths, spec, st_table, relative=True):
    """Frobenius norm of L0[rho_2] + L2[rho_0] for a steady-state table.

    With `relative` the norm is divided by ||L2[rho_0]||; a correct table
    drives the ratio to rounding level, an all-zero table leaves the full
    coherence source uncancelled.  L2 is assembled from the spec's K and Y_dyn
    arrays on the jumps' stacked (coupling, frequency) index (`spec.stacked`);
    `baths` is not read and is kept for API compatibility.
    """
    c, stacked, _ = _stacked_jumps(jumps)
    miss = np.equal.outer(c, c) & np.not_equal.outer(stacked, stacked) & ~_table_array(st_table, jumps)[1]
    if miss.any():
        p, q = np.argwhere(miss)[0]
        raise ValidationError(f"steady-state table misses entry ({c[p]},{c[p]},{stacked[p]:g},{stacked[q]:g})")
    rho2, rho0 = _rho2_matrix(h0, jumps, st_table, spec.beta)
    l0 = commutator_superop(require_hermitian(h0))
    l2 = _assemble(jumps, *spec.stacked(len(jumps), c, stacked))
    resid = unvectorize(l0 @ vectorize(rho2) + l2 @ vectorize(rho0))
    norm = np.linalg.norm(resid)
    if not relative:
        return float(norm)
    source = np.linalg.norm(l2 @ vectorize(rho0))
    return float(norm / max(source, 1e-300))


# --- g40 for the cumulant equation -------------------------------------------


def g40_tls(bath, omega0, beta=None, config=DEFAULT_QUAD):
    """Closed-form long-time tuple sum of the cumulant's fourth-order generator:

    g40 = (1/2) e^{-b w}(1 + e^{b w}) gamma(w) int_0^oo ds (e^{-b w} gamma(w,s) - gamma(-w,s)),

    for the anchor |0>; the anchor |1> value is obtained via omega0 -> -omega0.
    """
    measure = as_measure(bath)
    if beta is not None and abs(beta - measure.beta) > 1e-12 * max(1.0, beta):
        raise ValidationError("beta argument disagrees with the bath's beta")
    b = measure.beta
    if omega0 == 0:
        raise DomainError("qubit frequency must be nonzero")
    balance = math.exp(-b * omega0) * tls_time_integrated_balance(bath, omega0, config)
    return 0.5 * math.exp(-b * omega0) * (1.0 + math.exp(b * omega0)) \
        * measure_value(measure, omega0) * balance


class _GridCoefficients:
    """C(s) and Gamma(w, s) on a uniform time grid, from one pass over the bath's nodes.

    gam[:, i] is Gamma(w_i, s) = int_0^s e^{i w_i u} C(u) du, accumulated by
    Simpson, with C(s) = sum_k c_k e^{-i W_k s} summed over the same
    discretisation of the spectral measure as the frequency-domain route;
    this keeps the direct g40 route independent of the principal-value
    machinery.
    """

    def __init__(self, measure, freqs, t_max, n_steps):
        self.grid = np.linspace(0.0, t_max, n_steps + 1)
        nodes, c = _discretize(measure, t_max, 0.0)
        self.corr = np.concatenate([np.exp(-1j * np.outer(self.grid[start:start + 64], nodes)) @ c
                                    for start in range(0, len(self.grid), 64)])
        wave = self.corr[:, None] * np.exp(1j * np.outer(self.grid, freqs))
        self.gam = self._cumulative_simpson(wave, self.grid)

    @staticmethod
    def _cumulative_simpson(y, x):
        h = x[1] - x[0]
        out = np.zeros_like(y)
        # composite Simpson along axis 0 on even prefixes, trapezoid closure on odd ones
        out[2::2] = np.cumsum((h / 3.0) * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]), axis=0)
        out[1::2] = out[:-1:2] + 0.5 * h * (y[:-1:2] + y[1::2])
        return out


def g40_tls_direct(bath, omega0, t_final, n_steps=1200, anchor=0, config=DEFAULT_QUAD):
    """<k| (1/2)[K_T, L_T] e^{-beta(H0 - E_k)} |k> on the sigma_x qubit: the direct
    oracle for the closed form, with T = t_final and k = anchor in H0 = -(omega0/2) sigma_z.

    L_s is the interaction-picture Redfield generator of the grid's Gamma(w, s),
    with K = Gamma(w', s) + Gamma(w, s)^* and S = (Gamma(w', s) - Gamma(w, s)^*)/2i,
    both times e^{i(w - w')s}; K_T = int_0^T L_s ds is the same assembly of the
    pair's Simpson integrals, since `_assemble` is linear in them.

    `config` is not read and is kept for API compatibility: the grid route takes
    the panel discretisation of the spectral measure, which no QuadratureConfig sets
    (defect D1 in ROADMAP.md)."""
    if not math.isfinite(omega0):
        raise ValidationError("omega0 must be finite")
    if omega0 == 0:
        raise DomainError("qubit frequency must be nonzero")
    if not 0 <= t_final < math.inf:
        raise ValidationError("t_final must be finite and nonnegative")
    if not isinstance(n_steps, (int, np.integer)) or isinstance(n_steps, bool) or n_steps < 2:
        raise ValidationError("n_steps must be an integer of at least 2")
    if anchor not in (0, 1):
        raise ValidationError("anchor must be 0 or 1")
    measure = as_measure(bath)
    h0 = tls_hamiltonian(omega0)
    jumps = [bohr_decompose(spectral_decompose(h0), pauli_coupling(1.0))]
    freqs = np.array(jumps[0].frequencies)
    coeffs = _GridCoefficients(measure, freqs, t_final, n_steps)
    phase = np.exp(1j * np.multiply.outer(coeffs.grid, np.subtract.outer(freqs, freqs)))
    gam, gam_c = coeffs.gam[:, None, :], coeffs.gam.conj()[:, :, None]
    pair = phase * (gam + gam_c), phase * (gam - gam_c) / 2.0j
    rate = _assemble(jumps, *(x[-1] for x in pair))
    exponent = _assemble(jumps, *(coeffs._cumulative_simpson(x, coeffs.grid)[-1] for x in pair))
    energies = h0.diagonal().real
    weight = vectorize(np.diag(np.exp(-measure.beta * (energies - energies[anchor]))))
    element = unvectorize(exponent @ (rate @ weight) - rate @ (exponent @ weight))[anchor, anchor]
    return complex(0.5 * element)


def fourth_order_solve_tls(bath, omega0, beta=None, equation="redfield", config=DEFAULT_QUAD):
    """Solve the fourth-order diagonal equations of a qubit for (Y_st(+w0,+w0), Y_st(-w0,-w0)).

    The tuple sums only fix the difference; the split follows the thermal
    covariance Y_st(-w,-w) = -e^{-beta w} Y_st(w,w) of the closed-form solution
    (gauge Y_st(0,0) = 0).  Must reproduce tls_diagonal_steady.
    """
    measure = as_measure(bath)
    b = measure.beta
    if beta is not None and abs(beta - b) > 1e-12 * max(1.0, beta):
        raise ValidationError("beta argument disagrees with the bath's beta")
    if omega0 <= 0:
        raise ValidationError("omega0 must be positive")
    k_diag = measure_value(measure, omega0)
    if k_diag == 0.0:
        raise DomainError("K(w0, w0) vanishes: no dissipation, the equation is singular")
    if equation == "redfield":
        g40_sum = 0.0
    elif equation == "cumulant":
        g40_sum = g40_tls(bath, omega0, None, config).real
    else:
        raise ValidationError(f"unknown equation kind {equation!r}")
    # g22 eighth tuple: b e^{-b w}(Y_- - Y_+) K(w,w); the first seven cancel
    diff = g40_sum * math.exp(b * omega0) / (b * k_diag)  # Y_+ - Y_-
    plus = diff / (1.0 + math.exp(-b * omega0))
    return plus, -math.exp(-b * omega0) * plus
