"""Reservoir spectral functions: gamma(W), Lamb shift S(w), finite-time Gamma(w,t).

The reservoir enters only through the Fourier transform of its autocorrelation
function, gamma(W) = int dt e^{iWt} <R(t)R(0)>, represented here as a
SpectralMeasure with a smooth density and/or discrete atoms.  Everything else
is built from it:

    S(w)       = PV (1/2pi) int dW gamma(W) / (w - W)
    Gamma(w,t) = int_0^t ds e^{iws} <R(s)R(0)>
               = (1/2pi) int dW gamma(W) phi_t(w - W),   phi_t(x) = (e^{ixt}-1)/(ix)
    Gamma(w,oo) = gamma(w)/2 + i S(w)

and the Bloch-Redfield pair coefficients

    gamma(w,w',t) = Gamma(w',t) + Gamma(w,t)^*
    S(w,w',t)     = (Gamma(w',t) - Gamma(w,t)^*) / 2i,

whose t -> oo limits are the long-time Redfield pair K and Y_dyn.

Supported reservoirs: Ohmic J(W) = gc * W * exp(-|W|/wc) at inverse temperature
beta (gamma(W) = pi J(W) (coth(beta W/2) + 1), detailed balance built in), and
discrete mode sets {(W_k, g_k)} whose measure is a pair of atoms per mode with
Bose weights 2pi g_k^2 (n_k + 1) at +W_k and 2pi g_k^2 n_k at -W_k.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import (
    DEFAULT_QUAD,
    QuadratureConfig,
    adaptive_quad,
    panel_nodes,
    phi_diff_quotient,
    phi_kernel,
    principal_value,
)
from .errors import NumericsError, PoleError, ValidationError

_SUPPORT_MULT = 40.0  # Ohmic support radius in units of max(cutoff, 1/beta)

__all__ = [
    "OhmicBath",
    "DiscreteBath",
    "SpectralMeasure",
    "QuadratureConfig",
    "DEFAULT_QUAD",
    "gamma_spectral",
    "as_measure",
    "measure_value",
    "bose_occupation",
    "lamb_shift_S",
    "finite_time_Gamma",
    "gamma_finite_time",
    "S_finite_time",
    "correlation_time_domain",
    "integrated_gamma_matrix",
    "integrated_S_matrix",
    "pair_measure",
    "bath_list",
    "redfield_pair_matrices",
]


@dataclass(frozen=True)
class OhmicBath:
    """Ohmic reservoir J(W) = coupling * W * exp(-|W|/cutoff) at inverse temperature beta."""

    beta: float
    coupling: float
    cutoff: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        if self.cutoff <= 0:
            raise ValidationError("cutoff frequency must be positive")
        if self.coupling < 0:
            raise ValidationError("coupling strength must be nonnegative")


@dataclass(frozen=True)
class DiscreteBath:
    """Finite set of bosonic modes (W_k > 0, g_k) at inverse temperature beta."""

    beta: float
    modes: tuple

    def __post_init__(self):
        if self.beta <= 0:
            raise ValidationError("beta must be positive")
        modes = tuple((float(w), float(g)) for w, g in self.modes)
        if any(w <= 0 for w, _ in modes):
            raise ValidationError("all mode frequencies must be positive")
        object.__setattr__(self, "modes", modes)


@dataclass(frozen=True)
class SpectralMeasure:
    """gamma(W) as a smooth density plus delta atoms.

    density           vectorised W -> gamma(W), or None if purely atomic
    atoms             tuple of (location, weight)
    scale             characteristic frequency, used to size PV pairing windows
    support           radius beyond which the smooth part is negligible
    tail_zero_coeff   c in Gamma(0,s) ~ Gamma(0,oo) + c/s, the slow tail produced
                      by the |W| cusp of a detailed-balanced density at W = 0
    """

    beta: float
    density: object
    atoms: tuple
    scale: float
    support: float
    tail_zero_coeff: float = 0.0


def bose_occupation(beta, omega):
    """n(omega) = 1 / (e^{beta omega} - 1)."""
    return 1.0 / math.expm1(beta * omega)


@lru_cache(maxsize=128)
def gamma_spectral(bath):
    """Spectral measure gamma(W) of a bath model."""
    if isinstance(bath, OhmicBath):
        beta, gc, wc = bath.beta, bath.coupling, bath.cutoff

        def density(w):
            # gamma(W) = 2 pi J(|W|) (n_B(|W|) + theta(W)); the Bose form keeps
            # detailed balance exact to rounding on both branches
            w = np.asarray(w, dtype=float)
            aw = np.abs(w)
            x = beta * aw
            with np.errstate(over="ignore", divide="ignore"):
                occ = 1.0 / np.expm1(np.where(x == 0.0, 1.0, x))
            occ = occ + (w > 0.0)
            vals = 2.0 * np.pi * gc * aw * np.exp(-aw / wc) * occ
            return np.where(x == 0.0, 2.0 * np.pi * gc / beta, vals)

        return SpectralMeasure(
            beta=beta,
            density=density,
            atoms=(),
            scale=wc,
            support=_SUPPORT_MULT * max(wc, 1.0 / beta),
            tail_zero_coeff=-2.0 * gc / (beta * wc),
        )
    if isinstance(bath, DiscreteBath):
        atoms = []
        for w_k, g_k in bath.modes:
            n_k = bose_occupation(bath.beta, w_k)
            atoms.append((w_k, 2.0 * np.pi * g_k**2 * (n_k + 1.0)))
            atoms.append((-w_k, 2.0 * np.pi * g_k**2 * n_k))
        scale = max(w for w, _ in bath.modes)
        return SpectralMeasure(
            beta=bath.beta, density=None, atoms=tuple(atoms), scale=scale, support=scale
        )
    raise ValidationError(f"unsupported bath model {type(bath).__name__}")


def as_measure(bath):
    return bath if isinstance(bath, SpectralMeasure) else gamma_spectral(bath)


def bath_list(baths, n):
    """One bath per coupling: a single bath (or one-element list) is shared by all n,
    a longer list must have length n."""
    if not isinstance(baths, (list, tuple)):
        baths = (baths,)
    if len(baths) == 1:
        return tuple(baths) * n
    if len(baths) != n:
        raise ValidationError(f"need one bath per coupling: {len(baths)} baths for {n} couplings")
    return tuple(baths)


def pair_measure(baths, a, b):
    """Shared spectral measure of couplings a and b, or None if independent.

    `baths` is one bath shared by every coupling or a list from `bath_list`.
    """
    bath_a, bath_b = (baths[a], baths[b]) if isinstance(baths, (list, tuple)) else (baths, baths)
    return as_measure(bath_a) if bath_a == bath_b else None


def measure_value(measure, omega):
    """Pointwise gamma(omega) of the smooth part (atoms carry no density)."""
    measure = as_measure(measure)
    if measure.density is None:
        return 0.0
    return float(measure.density(np.asarray(float(omega))))


def _check_atom_pole(measure, omega):
    for loc, _ in measure.atoms:
        if abs(omega - loc) <= 1e-12 * max(1.0, abs(loc)):
            raise PoleError(f"frequency {omega:g} sits on the atom at {loc:g}")


def _smooth_domain(measure, omega=0.0):
    r = measure.support + abs(omega) + 1.0
    return -r, r


def _structure_scale(measure):
    """Variation scale of the smooth density (thermal factor or cutoff)."""
    return min(measure.scale, 1.0 / measure.beta)


@lru_cache(maxsize=16384)
def _lamb_shift_cached(measure, omega, config):
    total = 0.0
    for loc, wgt in measure.atoms:
        total += wgt / (2.0 * np.pi * (omega - loc))
    if measure.density is not None:
        lo, hi = _smooth_domain(measure, omega)

        def integrand(w):
            w = np.asarray(w)
            return measure.density(w) / (2.0 * np.pi * (omega - w))

        total += principal_value(integrand, omega, lo, hi, measure.scale, config)
    return total


def lamb_shift_S(bath, omega, config=DEFAULT_QUAD):
    """Lamb shift S(w) = PV (1/2pi) int dW gamma(W)/(w - W)."""
    measure = as_measure(bath)
    _check_atom_pole(measure, omega)
    return _lamb_shift_cached(measure, float(omega), config)


def _discretize(measure, rate, reach):
    """Nodes W_k and weights c_k >= 0 with (1/2pi) int gamma(W) f(W) dW ~ sum_k c_k f(W_k).

    Atoms are exact nodes of weight w_k/2pi.  The density is sampled on the
    panel rule that resolves oscillation rate `rate` on the smooth domain
    widened by `reach`; a panel edge falls on the |W| cusp at W = 0 only when
    the panel count is even.
    """
    atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
    nodes, c = [atoms[:, 0]], [atoms[:, 1] / (2.0 * np.pi)]
    if measure.density is not None:
        lo, hi = _smooth_domain(measure, reach)
        panel, weights = panel_nodes(lo, hi, rate, structure_scale=_structure_scale(measure))
        nodes.append(panel)
        c.append(weights * measure.density(panel) / (2.0 * np.pi))
    return np.concatenate(nodes), np.concatenate(c)


def _phi_table(measure, freqs, t):
    """(nodes W_k, weights c_k, phi_t(w_i - W_k) as a nodes x n array) on one discretisation."""
    fa = np.array(freqs, dtype=float)
    nodes, c = _discretize(measure, t, np.abs(fa).max())
    return nodes, c, phi_kernel(fa[None, :] - nodes[:, None], t)


def finite_time_Gamma(bath, omega, t, config=DEFAULT_QUAD):
    """Gamma(w, t) = int_0^t ds e^{iws} <R(s)R(0)>, with t = inf accepted.

    Read off the one-frequency Redfield pair as gamma(w,w,t)/2 + i S(w,w,t);
    the infinite-time sentinel gives gamma(w)/2 + i S(w).
    """
    g, s = redfield_pair_matrices(bath, (float(omega),), t, config)
    return complex(0.5 * g[0, 0] + 1j * s[0, 0])


def redfield_pair_matrices(bath, freqs, t, config=DEFAULT_QUAD):
    """(gamma(w,w',t), S(w,w',t)) as n x n arrays over the frequency list.

    Finite t: gamma = Gamma(w',t) + Gamma(w,t)^*, S = (Gamma(w',t) - Gamma(w,t)^*)/2i
    with Gamma(w_i,t) = sum_k c_k phi_t(w_i - W_k) on `_phi_table`, the table
    the cumulant's xi and Xi read.  t = inf: the long-time pair
    K = (gamma(w)+gamma(w'))/2 + i (S(w')-S(w)),  Y_dyn = (S(w)+S(w'))/2 + i (gamma(w)-gamma(w'))/4,
    formed from the gamma and S vectors directly (not through Gamma(w,oo)),
    which keeps the bits of cells where the sums cancel.
    """
    measure = as_measure(bath)
    if t == np.inf:
        g = np.array([measure_value(measure, w) for w in freqs])
        s = np.array([lamb_shift_S(measure, w, config) for w in freqs])
        return (0.5 * (g[:, None] + g[None, :]) + 1j * (s[None, :] - s[:, None]),
                0.5 * (s[:, None] + s[None, :]) + 1j * (0.25 * (g[:, None] - g[None, :])))
    if t < 0:
        raise ValidationError("t must be nonnegative")
    _, c, phi = _phi_table(measure, freqs, t)  # phi_0 = 0 exactly
    big = c @ phi
    return big[None, :] + big.conj()[:, None], (big[None, :] - big.conj()[:, None]) / 2.0j


def gamma_finite_time(bath, w, wp, t, config=DEFAULT_QUAD):
    """gamma(w, w', t) = Gamma(w', t) + Gamma(w, t)^*; see redfield_pair_matrices."""
    return complex(redfield_pair_matrices(bath, (w, wp), t, config)[0][0, 1])


def S_finite_time(bath, w, wp, t, config=DEFAULT_QUAD):
    """S(w, w', t) = (Gamma(w', t) - Gamma(w, t)^*) / 2i; see redfield_pair_matrices."""
    return complex(redfield_pair_matrices(bath, (w, wp), t, config)[1][0, 1])


def correlation_time_domain(bath, t, config=DEFAULT_QUAD):
    """Autocorrelation <R(t)R(0)>; satisfies <R(-t)R(0)> = <R(t)R(0)>^*."""
    measure = as_measure(bath)
    if t < 0:
        return np.conj(correlation_time_domain(measure, -t, config))
    total = 0.0 + 0.0j
    for loc, wgt in measure.atoms:
        total += wgt * np.exp(-1j * loc * t) / (2.0 * np.pi)
    if measure.density is not None:
        lo, hi = _smooth_domain(measure)

        def dens(w):
            return float(measure.density(np.asarray(w)))

        if t == 0:
            total += adaptive_quad(measure.density, lo, hi, config) / (2.0 * np.pi)
        else:
            from scipy.integrate import quad

            re, re_err = quad(dens, lo, hi, weight="cos", wvar=t,
                              epsabs=config.abs_tol, epsrel=config.rel_tol,
                              limit=config.limit)[:2]
            im, im_err = quad(dens, lo, hi, weight="sin", wvar=t,
                              epsabs=config.abs_tol, epsrel=config.rel_tol,
                              limit=config.limit)[:2]
            if max(re_err, im_err) > 1e3 * config.abs_tol * max(1.0, abs(re), abs(im)):
                raise NumericsError(
                    f"oscillatory correlation quadrature stalled at error {max(re_err, im_err):.2e}"
                )
            total += (re - 1j * im) / (2.0 * np.pi)
    return total


def _split_time(measure):
    # beyond this, Gamma(w, s) has converged to Gamma(w, oo) except for the
    # known 1/s tail in the w = 0 channel (thermal decay e^{-2 pi s / beta})
    return 60.0 * measure.beta


def _log_tail_integral(delta, t0, t1):
    """int_{t0}^{t1} e^{i delta s} / s ds."""
    if delta == 0.0:
        return complex(np.log(t1 / t0))
    from scipy.special import exp1

    return complex(exp1(-1j * delta * t0) - exp1(-1j * delta * t1))


def _integrated_direct(measure, freqs, t):
    """(xi, Xi) on the phi table phi_ki = phi_t(w_i - W_k) of `_phi_table`: xi is its Gram
    matrix (PSD); as phi_t(-x) = phi_t(x)^*, Xi = -(D + D^dag)/2 (Hermitian) with one difference
    quotient per entry on the table, D_ij = sum_k c_k DQ(w_i - W_k, w_i - w_j)."""
    nodes, c, phi = _phi_table(measure, freqs, t)
    fa = np.array(freqs, dtype=float)
    xi = np.einsum("n,ni,nj->ij", c, phi, phi.conj())
    d = np.array([[np.sum(c * phi_diff_quotient(wi - nodes, phi[:, i], wi - wj, t)) for wj in fa]
                  for i, wi in enumerate(fa)])
    return xi, -0.5 * (d + d.conj().T)


@lru_cache(maxsize=512)
def _integrated_matrices_cached(measure, freqs, t, config):
    """(int_0^t gamma~, int_0^t S~) coefficient matrices over the frequency list.

    For large t the integral is split at T0: the correlation function has
    decayed there, so gamma(w,w',s) = gamma(w,w',oo) + [w or w' = 0 tail c/s],
    and the remainder integrates in closed form on top of the cached T0 matrices.
    """
    t0 = _split_time(measure)
    if measure.density is None or t <= t0:
        return _integrated_direct(measure, freqs, t)
    xi0, sig0 = _integrated_matrices_cached(measure, freqs, t0, config)
    k_inf, s_inf = redfield_pair_matrices(measure, freqs, np.inf, config)
    fa = np.array(freqs)
    delta = fa[:, None] - fa[None, :]
    step = phi_kernel(delta, t) - phi_kernel(delta, t0)
    xi, sig = xi0 + k_inf * step, sig0 + s_inf * step
    c = measure.tail_zero_coeff
    if c != 0.0:
        tail = np.array([[_log_tail_integral(d, t0, t) for d in row] for row in delta])
        zero = (fa == 0.0).astype(float)  # floats: a bool outer sum would be a logical or
        xi += c * (zero[None, :] + zero[:, None]) * tail
        sig += c * (zero[None, :] - zero[:, None]) * tail / 2.0j
    return xi, sig


def integrated_gamma_matrix(bath, freqs, t, config=DEFAULT_QUAD):
    """Matrix int_0^t e^{i(w-w')s} gamma(w, w', s) ds over the given frequencies.

    Computed as the Gram matrix (1/2pi) int gamma(W) phi_t(w-W) phi_t(w'-W)^* dW,
    so it is positive semi-definite by construction.
    """
    if t < 0:
        raise ValidationError("t must be nonnegative")
    measure = as_measure(bath)
    return _integrated_matrices_cached(measure, tuple(float(f) for f in freqs), float(t), config)[0].copy()


def integrated_S_matrix(bath, freqs, t, config=DEFAULT_QUAD):
    """Matrix int_0^t e^{i(w-w')s} S(w, w', s) ds over the given frequencies."""
    if t < 0:
        raise ValidationError("t must be nonnegative")
    measure = as_measure(bath)
    return _integrated_matrices_cached(measure, tuple(float(f) for f in freqs), float(t), config)[1].copy()
