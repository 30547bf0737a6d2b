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
from .operators import _contract, _stacked_jumps, _table_array, require_hermitian

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


# The 25 terms of f(w1..w4, t, s) as (coeff, factor1, factor2, exp_sel).  A factor "Kijx" is the
# kind K ("S" or "g") of the pair (w_i, w_j), its first argument negated, at the time x ("s" or
# "t"); exp_sel lists the i whose w_i enter e^{-beta sum}.
_F_TERMS = (
    (1.0,   "S12s", "S34t", "12"),
    (-1.0,  "S12s", "S34t", "1234"),
    (0.5j,  "S12s", "g34t", "12"),
    (0.5j,  "S12s", "g34t", "1234"),
    (-1j,   "S12s", "g43t", "123"),
    (1.0,   "S12t", "S34s", "12"),
    (-1.0,  "S12t", "S34s", ""),
    (0.5j,  "S12t", "g34s", "12"),
    (-0.5j, "S12t", "g34s", ""),
    (-1j,   "S23t", "g41s", "123"),
    (1j,    "S23t", "g41s", "1"),
    (-0.5j, "S34s", "g12t", "12"),
    (-0.5j, "S34s", "g12t", ""),
    (1j,    "S34s", "g21t", "1"),
    (-0.5j, "S34t", "g12s", "12"),
    (0.5j,  "S34t", "g12s", "1234"),
    (0.25,  "g12s", "g34t", "12"),
    (0.25,  "g12s", "g34t", "1234"),
    (-0.5,  "g12s", "g43t", "123"),
    (0.25,  "g12t", "g34s", "12"),
    (0.25,  "g12t", "g34s", ""),
    (-0.5,  "g21t", "g34s", "1"),
    (-0.5,  "g23t", "g41s", "123"),
    (-0.5,  "g23t", "g41s", "1"),
    (1.0,   "g32t", "g41s", "12"),
)


class _GridCoefficients:
    """Finite-time gamma~ and S~ on a shared time grid, from one quadrature pass.

    Gamma(w, tau) = int_0^tau e^{iws} C(s) ds is accumulated by Simpson on a
    uniform grid, with C(s) = sum_k c_k e^{-i W_k s} summed over the same
    discretisation of the spectral measure as the frequency-domain route;
    this keeps the direct g40 route independent of the principal-value
    machinery.
    """

    def __init__(self, measure, freqs, t_max, n_steps):
        self.grid = np.linspace(0.0, t_max, n_steps + 1)
        nodes, c = _discretize(measure, t_max, 0.0)
        self.corr = np.concatenate([np.exp(-1j * np.outer(self.grid[start:start + 64], nodes)) @ c
                                    for start in range(0, len(self.grid), 64)])
        self.gam = {w: self._cumulative_simpson(np.exp(1j * w * self.grid) * self.corr, self.grid)
                    for w in freqs}

    @staticmethod
    def _cumulative_simpson(y, x):
        h = x[1] - x[0]
        out = np.zeros_like(y)
        # composite Simpson on even prefixes, trapezoid closure on odd ones
        out[2::2] = np.cumsum((h / 3.0) * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]))
        out[1::2] = out[:-1:2] + 0.5 * h * (y[:-1:2] + y[1::2])
        return out

    def gamma_pair(self, x, y, idx):
        return self.gam[y][idx] + np.conj(self.gam[x][idx])

    def s_pair(self, x, y, idx):
        return (self.gam[y][idx] - np.conj(self.gam[x][idx])) / 2.0j

    def tilde(self, kind, x, y, idx):
        phase = np.exp(1j * (x - y) * self.grid[idx])
        base = self.gamma_pair(x, y, idx) if kind == "g" else self.s_pair(x, y, idx)
        return phase * base


def g40_tls_direct(bath, omega0, t_final, n_steps=1200, anchor=0, config=DEFAULT_QUAD):
    """Tuple-summed g40 via the explicit double time integral of the commutator
    expansion f(w1..w4, t, s); coarse-grid oracle for the closed form.

    `config` is not read and is kept for API compatibility: the grid route takes
    the panel discretisation of the spectral measure, which no QuadratureConfig sets
    (defect D1 in ROADMAP.md)."""
    measure = as_measure(bath)
    beta = measure.beta
    w0 = omega0 if anchor == 0 else -omega0
    freqs = (-abs(omega0), 0.0, abs(omega0))
    coeffs = _GridCoefficients(measure, freqs, t_final, n_steps)
    grid = coeffs.grid
    t_idx = len(grid) - 1
    s_idx = np.arange(len(grid))

    tuples = four_tuples((-0.5 * w0, 0.5 * w0), 0).tuples
    total = 0.0 + 0.0j
    for tup in tuples:
        w = (None,) + tup  # 1-based access
        fw = np.zeros(len(grid), dtype=complex)

        def value(factor, swap):  # with swap, s and t trade places
            idx = t_idx if (factor[3] == "t") != swap else s_idx
            return coeffs.tilde(factor[0], -w[int(factor[1])], w[int(factor[2])], idx)

        for coeff, f1, f2, exps in _F_TERMS:
            weight = math.exp(-beta * sum(w[int(i)] for i in exps)) if exps else 1.0
            term_ts, term_st = (coeff * weight * value(f1, swap) * value(f2, swap) for swap in (False, True))
            fw += term_ts - term_st
        # phase e^{i sum(w) t} = 1 on zero-sum tuples
        total += 0.5 * coeffs._cumulative_simpson(fw, grid)[-1]
    return complex(total)


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
