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

from ._quad import DEFAULT_QUAD
from .bath import _discretize, as_measure, measure_value
from .corrections import _E, tls_time_integrated_balance
from .errors import DomainError, ValidationError
from .generators import commutator_superop, dissipative_generator, thermal_state, unvectorize, vectorize
from .operators import _sum_products, require_hermitian

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
    seen = []
    for l, m, jj in product(range(len(energies)), repeat=3):
        t = (energies[l] - ek, energies[m] - energies[l],
             energies[jj] - energies[m], ek - energies[jj])
        if t not in seen:
            seen.append(t)
    return FourTupleSet(k, tuple(seen))


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
    weighted = {(a, b, w, wp): v * alpha_weight(beta, wp - w)
                for (a, b, w, wp), v in table.entries.items() if v != 0.0}
    return -rho0 @ _sum_products(weighted, jumps), rho0


def second_order_residual(h0, jumps, baths, spec, st_table, relative=True):
    """Frobenius norm of L0[rho_2] + L2[rho_0] for a steady-state table.

    With `relative` the norm is divided by ||L2[rho_0]||; a correct table
    drives the ratio to rounding level, an all-zero table leaves the full
    coherence source uncancelled.
    """
    beta = spec.beta
    for a, ja in enumerate(jumps):
        for w in ja.frequencies:
            for wp in ja.frequencies:
                if w != wp and (a, a, w, wp) not in st_table.entries:
                    raise ValidationError(
                        f"steady-state table misses entry ({a},{a},{w:g},{wp:g})"
                    )
    rho2, rho0 = _rho2_matrix(h0, jumps, st_table, beta)
    l0 = commutator_superop(require_hermitian(h0))
    l2 = dissipative_generator(jumps, spec.K, spec.upsilon_dyn)
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


def _f_terms():
    """The 25 terms of f(w1..w4, t, s): (coeff, kind1, pair1, slot1, kind2, pair2, slot2, exp_sel).

    kinds: "S" or "g"; pairs index (w_i, w_j) with the first argument negated;
    slots pick the time argument; exp_sel lists which of w1..w4 enter e^{-beta sum}.
    """
    return [
        (1.0,   "S", (1, 2), "s", "S", (3, 4), "t", (1, 2)),
        (-1.0,  "S", (1, 2), "s", "S", (3, 4), "t", (1, 2, 3, 4)),
        (0.5j,  "S", (1, 2), "s", "g", (3, 4), "t", (1, 2)),
        (0.5j,  "S", (1, 2), "s", "g", (3, 4), "t", (1, 2, 3, 4)),
        (-1j,   "S", (1, 2), "s", "g", (4, 3), "t", (1, 2, 3)),
        (1.0,   "S", (1, 2), "t", "S", (3, 4), "s", (1, 2)),
        (-1.0,  "S", (1, 2), "t", "S", (3, 4), "s", ()),
        (0.5j,  "S", (1, 2), "t", "g", (3, 4), "s", (1, 2)),
        (-0.5j, "S", (1, 2), "t", "g", (3, 4), "s", ()),
        (-1j,   "S", (2, 3), "t", "g", (4, 1), "s", (1, 2, 3)),
        (1j,    "S", (2, 3), "t", "g", (4, 1), "s", (1,)),
        (-0.5j, "S", (3, 4), "s", "g", (1, 2), "t", (1, 2)),
        (-0.5j, "S", (3, 4), "s", "g", (1, 2), "t", ()),
        (1j,    "S", (3, 4), "s", "g", (2, 1), "t", (1,)),
        (-0.5j, "S", (3, 4), "t", "g", (1, 2), "s", (1, 2)),
        (0.5j,  "S", (3, 4), "t", "g", (1, 2), "s", (1, 2, 3, 4)),
        (0.25,  "g", (1, 2), "s", "g", (3, 4), "t", (1, 2)),
        (0.25,  "g", (1, 2), "s", "g", (3, 4), "t", (1, 2, 3, 4)),
        (-0.5,  "g", (1, 2), "s", "g", (4, 3), "t", (1, 2, 3)),
        (0.25,  "g", (1, 2), "t", "g", (3, 4), "s", (1, 2)),
        (0.25,  "g", (1, 2), "t", "g", (3, 4), "s", ()),
        (-0.5,  "g", (2, 1), "t", "g", (3, 4), "s", (1,)),
        (-0.5,  "g", (2, 3), "t", "g", (4, 1), "s", (1, 2, 3)),
        (-0.5,  "g", (2, 3), "t", "g", (4, 1), "s", (1,)),
        (1.0,   "g", (3, 2), "t", "g", (4, 1), "s", (1, 2)),
    ]


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
        self.corr = np.empty(len(self.grid), dtype=complex)
        for start in range(0, len(self.grid), 64):
            sl = slice(start, start + 64)
            self.corr[sl] = np.exp(-1j * np.outer(self.grid[sl], nodes)) @ c
        self.gam = {}
        for w in freqs:
            integrand = np.exp(1j * w * self.grid) * self.corr
            self.gam[w] = self._cumulative_simpson(integrand, self.grid)

    @staticmethod
    def _cumulative_simpson(y, x):
        h = x[1] - x[0]
        out = np.zeros_like(y)
        # composite Simpson on even prefixes, trapezoid closure on odd ones
        even = np.zeros(len(y) // 2 + 1, dtype=complex)
        for i in range(1, len(even)):
            even[i] = even[i - 1] + (h / 3.0) * (y[2 * i - 2] + 4.0 * y[2 * i - 1] + y[2 * i])
        out[::2] = even[: len(out[::2])]
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
    expansion f(w1..w4, t, s); coarse-grid oracle for the closed form."""
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

        def value(kind, pair, slot):
            x, y = -w[pair[0]], w[pair[1]]
            idx = t_idx if slot == "t" else s_idx
            return coeffs.tilde(kind, x, y, idx)

        for coeff, k1, p1, s1, k2, p2, s2, exps in _f_terms():
            weight = math.exp(-beta * sum(w[i] for i in exps)) if exps else 1.0
            term_ts = coeff * weight * value(k1, p1, s1) * value(k2, p2, s2)
            s1m = "t" if s1 == "s" else "s"
            s2m = "t" if s2 == "s" else "s"
            term_st = coeff * weight * value(k1, p1, s1m) * value(k2, p2, s2m)
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
