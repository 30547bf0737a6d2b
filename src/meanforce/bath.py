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
    _PHI_SWITCH,
    DEFAULT_QUAD,
    _pairwise_sum,
    _raise_failed,
    _rotations,
    adaptive_quad,
    ladder,
    panel_chunks,
    phi_diff_quotient,
    phi_kernel,
    principal_value,
)
from .errors import NumericsError, PoleError, ValidationError

_SUPPORT_MULT = 40.0  # Ohmic support radius in units of max(cutoff, 1/beta)
_PHI_BLOCK = 1024  # discretisation nodes per block of the finite-time transforms

__all__ = [
    "OhmicBath",
    "DiscreteBath",
    "SpectralMeasure",
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
    "redfield_pair_matrices",
]


@dataclass(frozen=True)
class OhmicBath:
    """Ohmic reservoir J(W) = coupling * W * exp(-|W|/cutoff) at inverse temperature beta."""

    beta: float
    coupling: float
    cutoff: float

    def __post_init__(self):  # NaN and infinity fail each guard
        if not 0 < self.beta < math.inf:
            raise ValidationError("beta must be positive")
        if not 0 < self.cutoff < math.inf:
            raise ValidationError("cutoff frequency must be positive")
        if not 0 <= self.coupling < math.inf:
            raise ValidationError("coupling strength must be nonnegative")
        if not _SUPPORT_MULT * max(self.cutoff, 1.0 / self.beta) < math.inf:
            raise ValidationError(f"the support radius {_SUPPORT_MULT:g} max(cutoff, 1/beta) overflows")


@dataclass(frozen=True)
class DiscreteBath:
    """Finite set of bosonic modes (W_k > 0, g_k) at inverse temperature beta."""

    beta: float
    modes: tuple

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValidationError("beta must be positive")
        modes = tuple((float(w), float(g)) for w, g in self.modes)
        if not all(0 < w < math.inf for w, _ in modes):
            raise ValidationError("all mode frequencies must be positive")
        for w, g in modes:
            if not math.isfinite(g):
                raise ValidationError(f"mode ({w:g}, {g:g}): the coupling is not finite")
            try:
                n = bose_occupation(self.beta, w)
            except OverflowError:  # e^{beta W}
                n = math.inf
            if not math.isfinite(2.0 * math.pi * g * g * (n + 1.0)):
                raise ValidationError(f"mode ({w:g}, {g:g}): e^(beta W) or the atom weight "
                                      "2 pi g^2 (n + 1) overflows")
        object.__setattr__(self, "modes", modes)


@dataclass(frozen=True)
class SpectralMeasure:
    """gamma(W) as a smooth density plus delta atoms.

    density           vectorised W -> gamma(W), or None if purely atomic
    atoms             tuple of (location, weight)
    scale             characteristic frequency: the cutoff, or the highest mode
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


def measure_value(measure, omega):
    """Pointwise gamma(omega) of the smooth part (atoms carry no density)."""
    measure = as_measure(measure)
    if measure.density is None:
        return 0.0
    return float(measure.density(np.asarray(float(omega))))


def _finite(omega):
    if not math.isfinite(omega):
        raise ValidationError(f"frequency {omega:g} is not finite")
    return omega


def _check_atom_pole(measure, omegas):
    for omega in map(_finite, omegas):
        for loc, _ in measure.atoms:
            if abs(omega - loc) <= 1e-12 * max(1.0, abs(loc)):
                raise PoleError(f"frequency {omega:g} sits on the atom at {loc:g}")


def _smooth_domain(measure, omega=0.0):
    r = measure.support + abs(omega) + 1.0
    return -r, r


def _structure_scale(measure):
    """Variation scale of the smooth density (thermal factor or cutoff)."""
    return min(measure.scale, 1.0 / measure.beta)


def _edges(measure, reach):  # the first interval edges of every integral of the density
    return ladder(_structure_scale(measure), reach)


@lru_cache(maxsize=128)
def _lamb_shift_cached(measure, config):
    """Every S(w) computed so far on one measure and config: w -> (value, failure message or None).

    `_lamb_shifts` grows it; one entry does not depend on the others, so a
    value is reused whatever batch computed it.
    """
    return {}


def _lamb_shifts(measure, omegas, config):
    """(S(w) over the frequency list, {index: message} of the failed entries); a
    frequency on an atom raises PoleError.  The frequencies not yet in the measure's
    table go through one batched principal-value call from the `ladder` edges, whose
    edge at W = 0 is the density's |W| cusp (qk21's error estimate does not see one
    inside an interval); a failed entry is nan and leaves the others alone."""
    _check_atom_pole(measure, omegas)
    known = _lamb_shift_cached(measure, config)
    todo = list(dict.fromkeys(w for w in omegas if w not in known))
    if todo:
        w, total = np.array(todo), np.zeros(len(todo))
        for loc, wgt in measure.atoms:
            total += wgt / (2.0 * np.pi * (w - loc))
        failed = {}
        if measure.density is not None:
            lo, hi = _smooth_domain(measure, w)
            pv, _, failed = principal_value(lambda x, k: measure.density(x) / (2.0 * np.pi * (w[k, None] - x)),
                                            w, lo, hi, config, _edges(measure, hi))
            total += pv
        known.update((x, (float(v), failed.get(i))) for i, (x, v) in enumerate(zip(todo, total)))
    entries = [known[w] for w in omegas]
    return np.array([v for v, _ in entries]), {i: m for i, (_, m) in enumerate(entries) if m is not None}


def lamb_shift_S(bath, omega, config=DEFAULT_QUAD):
    """Lamb shift S(w) = PV (1/2pi) int dW gamma(W)/(w - W)."""
    values, failed = _lamb_shifts(as_measure(bath), [float(omega)], config)
    _raise_failed(failed)
    return float(values[0])


def _discretize(measure, rate, reach):
    """Nodes W_k and weights c_k >= 0 with (1/2pi) int gamma(W) f(W) dW ~ sum_k c_k f(W_k).

    Atoms are exact nodes of weight w_k/2pi and are always kept.  The density
    is sampled on the panel rule that resolves oscillation rate `rate` on the
    smooth domain widened by `reach` (its node cap applies to the whole rule);
    a panel edge falls on the |W| cusp at W = 0 only when the panel count is
    even.  Of those N panel nodes only the ones with |c_k| > eps max|c| / N
    are kept, so the dropped weight totals at most eps max|c|: on the W < 0
    side the Bose factor e^{-beta|W|} puts about half the nodes below that
    floor.  The rule is weighted chunk by chunk, and each chunk is filtered
    once the last has set max|c|, so no density temporary spans all N nodes;
    the kept nodes keep their order and their bits.  A weight that is not
    finite raises NumericsError naming its first such node.
    """
    atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
    nodes, c = [atoms[:, 0]], [atoms[:, 1] / (2.0 * np.pi)]
    if measure.density is not None:
        chunks, n, top = [], 0, 0.0
        for panel, weights in panel_chunks(*_smooth_domain(measure, reach), rate, _structure_scale(measure)):
            with np.errstate(all="ignore"):  # a weight that is not finite raises below
                cw = weights * measure.density(panel) / (2.0 * np.pi)
            bad = ~np.isfinite(cw)
            if bad.any():
                raise NumericsError(f"spectral density weight is not finite at W = {panel[np.argmax(bad)]:.17g}")
            chunks.append((panel, cw))
            n, top = n + cw.size, max(top, np.abs(cw).max())
        floor = np.finfo(float).eps * top / n
        chunks.reverse()
        while chunks:  # each chunk is freed as its kept nodes are copied out
            panel, cw = chunks.pop()
            keep = np.abs(cw) > floor
            nodes.append(panel[keep])
            c.append(cw[keep])
    return np.concatenate(nodes), np.concatenate(c)


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
    with the Gamma(w_i, t) of the one cached result per (measure, freqs, t)
    that also holds the cumulant's xi and Xi: sum_k c_k phi_t(w_i - W_k) over
    their walk (`_walk`) up to the split time, and past it the split's
    Gamma(w, oo) + [w = 0] c/t.  t = inf: the long-time pair
    K = (gamma(w)+gamma(w'))/2 + i (S(w')-S(w)),  Y_dyn = (S(w)+S(w'))/2 + i (gamma(w)-gamma(w'))/4,
    formed from the gamma and S vectors directly (not through Gamma(w,oo)),
    which keeps the bits of cells where the sums cancel.
    """
    if t == np.inf:
        pair, failed = _long_time_pair(as_measure(bath), freqs, config)
        _raise_failed(failed)
        return pair
    big = _integrated(bath, freqs, t, config)[2]
    return big[None, :] + big.conj()[:, None], (big[None, :] - big.conj()[:, None]) / 2.0j


def _long_time_pair(measure, freqs, config):
    """((K, Y_dyn) over the frequency list, {index: message} of the failed S(w)).

    Every gamma(w) comes from one density call and every S(w) from one
    `_lamb_shifts` call; the rows and columns of a failed frequency are nan.
    """
    fa = np.array(freqs, dtype=float)
    g = np.zeros(fa.size) if measure.density is None else measure.density(fa)
    s, failed = _lamb_shifts(measure, fa.tolist(), config)
    return (0.5 * (g[:, None] + g[None, :]) + 1j * (s[None, :] - s[:, None]),
            0.5 * (s[:, None] + s[None, :]) + 1j * (0.25 * (g[:, None] - g[None, :]))), failed


def gamma_finite_time(bath, w, wp, t, config=DEFAULT_QUAD):
    """gamma(w, w', t) = Gamma(w', t) + Gamma(w, t)^*; see redfield_pair_matrices."""
    return complex(redfield_pair_matrices(bath, (w, wp), t, config)[0][0, 1])


def S_finite_time(bath, w, wp, t, config=DEFAULT_QUAD):
    """S(w, w', t) = (Gamma(w', t) - Gamma(w, t)^*) / 2i; see redfield_pair_matrices."""
    return complex(redfield_pair_matrices(bath, (w, wp), t, config)[1][0, 1])


def correlation_time_domain(bath, t, config=DEFAULT_QUAD):
    """Autocorrelation <R(t)R(0)>; satisfies <R(-t)R(0)> = <R(t)R(0)>^*."""
    if not abs(t) < math.inf:
        raise ValidationError("t must be finite")
    measure = as_measure(bath)
    if t < 0:
        return np.conj(correlation_time_domain(measure, -t, config))
    total = 0.0 + 0.0j
    for loc, wgt in measure.atoms:
        total += wgt * np.exp(-1j * loc * t) / (2.0 * np.pi)
    if measure.density is not None:
        lo, hi = _smooth_domain(measure)
        if t == 0:
            value, _, failed = adaptive_quad(lambda x, k: measure.density(x), [lo], [hi], config,
                                             _edges(measure, hi))
            _raise_failed(failed)
            total += value[0] / (2.0 * np.pi)
        else:
            from scipy.integrate import quad

            (re, re_err), (im, im_err) = (
                quad(measure.density, lo, hi, weight=weight, wvar=t, epsabs=config.abs_tol,
                     epsrel=config.rel_tol, limit=config.limit)[:2] for weight in ("cos", "sin"))
            if max(re_err, im_err) > 1e3 * config.abs_tol * max(1.0, abs(re), abs(im)):
                raise NumericsError("oscillatory correlation quadrature stalled at error "
                                    f"{max(re_err, im_err):.2e}")
            total += (re - 1j * im) / (2.0 * np.pi)
    return total


def _split_time(measure):
    # beyond this, Gamma(w, s) has converged to Gamma(w, oo) except for the
    # known 1/s tail in the w = 0 channel (thermal decay e^{-2 pi s / beta})
    return 60.0 * measure.beta


def _log_tail_integral(delta, t0, t1):
    """int_{t0}^{t1} e^{i delta s} / s ds over an array of delta, in one exp1 call."""
    from scipy.special import exp1

    zero = delta == 0.0
    safe = np.where(zero, 1.0, delta)
    return np.where(zero, np.log(t1 / t0), exp1(-1j * safe * t0) - exp1(-1j * safe * t1))


def _walk(measure, freqs, t):
    """(xi, Xi, Gamma) summed over the nodes `_discretize` gives the frequency list at time t.

    With phi_ik = phi_t(w_i - W_k) = e^{ia_i} s_ik e^{-ib_k} of `_quad._rotations`:
    xi_ij = sum_k c_k phi_ik phi_jk^* = e^{ia_i} (s c s^T)_ij e^{-ia_j},
    Gamma_i = sum_k c_k phi_ik, and, as phi_t(-x) = phi_t(x)^*, Xi = -(D + D^dag)/2
    with the difference quotients
    D_ij = sum_k c_k (phi_ik - phi_t(w_i - w_j)) u_jk,    u_jk = 1/(w_j - W_k).

    Each block of _PHI_BLOCK nodes gives one real product
    s [s c; u c cos b; c cos b; u c sin b; c sin b]^T, read off as s c s^T,
    e^{ia_i} (P - iQ)_ij = sum_k phi_ik c_k u_jk and Gamma; the block's D
    is cancelled against phi_t(w_i - w_j) sum_k c_k u_jk within the block, in
    the real frame of P and Q, so an atom's terms cancel before they meet the
    rest of the sum.  The entries |h| < 1/2 add phi_kernel(x) - e^{ia} s e^{-ib}
    to D and Gamma, over the nodes that hold one.  Node/column pairs with
    |(w_j - W_k) t| < _PHI_SWITCH are left out of u; each column that has any
    in a block takes them from `phi_diff_quotient` (phi_t' at the midpoint).
    The block sums are added pairwise and xi is made exactly Hermitian.  At
    t = 0 every node would be inside the switch, and phi_0 = phi_0' = 0 makes
    all three exactly zero; no frequency gives empty arrays.
    """
    fa = np.array(freqs, dtype=float)
    n = fa.size
    if t == 0 or n == 0:
        return np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex), np.zeros(n, dtype=complex)
    nodes, c = _discretize(measure, t, np.abs(fa).max())
    rot = np.exp(1j * (0.5 * t * fa))
    back = rot.conj()[:, None] * phi_kernel(fa[:, None] - fa[None, :], t)  # e^{-ia_i} phi_t(w_i - w_j)
    back_re, back_im = back.real.copy(), back.imag.copy()
    buffer = np.empty((3 * n + 2) * min(_PHI_BLOCK, nodes.size))  # reused from block to block

    def blocks():  # each block's [G | P | gc | Q | gs] with D = e^{ia} (P - iQ), Gamma = e^{ia} (gc - i gs)
        for _, ck, s, u, (cos_b, sin_b), near in _rotations(fa, nodes, c, len(measure.atoms), t, _PHI_BLOCK):
            if near:
                cols, x, small, phi = near
                inside = np.abs(x * t) < _PHI_SWITCH
                u[:, cols] = np.where(inside, 0.0, u[:, cols])
            m = buffer[:(3 * n + 2) * ck.size].reshape(-1, ck.size)
            np.multiply(s, ck, out=m[:n])
            cc, cs = np.multiply(ck, cos_b, out=m[2 * n]), np.multiply(ck, sin_b, out=m[3 * n + 1])
            np.multiply(u, cc, out=m[n:2 * n])
            np.multiply(u, cs, out=m[2 * n + 1:3 * n + 1])
            out = s @ m.T
            r = u @ ck
            out[:, n:2 * n] -= back_re * r
            out[:, 2 * n + 1:3 * n + 1] += back_im * r
            if near:  # the phi_kernel entries and the quotients, as e^{-ia} times their [D | Gamma] terms
                fix = np.where(small, rot.conj()[:, None] * phi - s[:, cols] * (cos_b[cols] - 1j * sin_b[cols]), 0.0)
                fix = fix @ np.column_stack([(ck[cols] * u[:, cols]).T, ck[cols]])
                for j in np.flatnonzero(inside.any(axis=1)):
                    k = inside[j]
                    fix[:, j] += rot.conj() * (phi_diff_quotient(x[:, k], phi[:, k], (fa - fa[j])[:, None], t)
                                               @ ck[cols[k]])
                out[:, n:2 * n + 1] += fix.real
                out[:, 2 * n + 1:] -= fix.imag
            yield out

    total = _pairwise_sum(blocks(), np.zeros((n, 3 * n + 2)))
    xi = rot[:, None] * total[:, :n] * rot.conj()
    d = rot[:, None] * (total[:, n:2 * n] - 1j * total[:, 2 * n + 1:3 * n + 1])
    return 0.5 * (xi + xi.conj().T), -0.5 * (d + d.conj().T), rot * (total[:, 2 * n] - 1j * total[:, 3 * n + 1])


@lru_cache(maxsize=8)  # a time t and its split time t0 for each of up to four baths
def _integrated_matrices_cached(measure, freqs, t, config):
    """(int_0^t gamma~, int_0^t S~, Gamma(w, t)) over the frequency list.

    Up to the split time T0 all three come from one `_walk`.  Past it the
    correlation function has decayed, so gamma(w,w',s) = gamma(w,w',oo) +
    [w or w' = 0 tail c/s]: the remainder integrates in closed form on top of
    the cached T0 matrices, and Gamma(w, t) = Gamma(w, oo) + [w = 0] c/t.
    """
    t0 = _split_time(measure)
    if measure.density is None or t <= t0:
        return _walk(measure, freqs, t)
    xi0, sig0, _ = _integrated_matrices_cached(measure, freqs, t0, config)
    k_inf, s_inf = redfield_pair_matrices(measure, freqs, np.inf, config)
    fa = np.array(freqs)
    delta = fa[:, None] - fa[None, :]
    step = phi_kernel(delta, t) - phi_kernel(delta, t0)
    xi, sig = xi0 + k_inf * step, sig0 + s_inf * step
    gamma = 0.5 * k_inf.diagonal() + 1j * s_inf.diagonal()
    c = measure.tail_zero_coeff
    if c != 0.0:
        zero = (fa == 0.0).astype(float)  # floats: a bool outer sum would be a logical or
        weight = zero[None, :] + zero[:, None]
        tail = np.zeros(delta.shape, dtype=complex)  # nonzero on the w = 0 row and column only
        tail[weight != 0] = _log_tail_integral(delta[weight != 0], t0, t)
        xi += c * weight * tail
        sig += c * (zero[None, :] - zero[:, None]) * tail / 2.0j
        gamma += c * zero / t
    return xi, sig, gamma


def _integrated(bath, freqs, t, config):
    if not 0 <= t < math.inf:
        raise ValidationError("t must be nonnegative and finite")
    freqs = tuple(_finite(float(f)) for f in freqs)
    return _integrated_matrices_cached(as_measure(bath), freqs, float(t), config)


def integrated_gamma_matrix(bath, freqs, t, config=DEFAULT_QUAD):
    """Matrix int_0^t e^{i(w-w')s} gamma(w, w', s) ds over the given frequencies.

    Computed as the Gram matrix (1/2pi) int gamma(W) phi_t(w-W) phi_t(w'-W)^* dW,
    so it is positive semi-definite by construction: over the one walk of
    `_walk`, e^{ia} (s c s^T) e^{-ia}, a congruence of the summed real Gram
    blocks of phi_ik = e^{ia_i} s_ik e^{-ib_k}; made exactly Hermitian.
    """
    return _integrated(bath, freqs, t, config)[0].copy()


def integrated_S_matrix(bath, freqs, t, config=DEFAULT_QUAD):
    """Matrix int_0^t e^{i(w-w')s} S(w, w', s) ds over the given frequencies.

    Xi = -(D + D^dag)/2 with D_ij = sum_k c_k (phi_t(w_i - W_k) - phi_t(w_i - w_j)) / (w_j - W_k),
    summed over the same walk as `integrated_gamma_matrix`: each block's
    real product gives sum_k phi_ik c_k / (w_j - W_k), cancelled within the
    block against phi_t(w_i - w_j) sum_k c_k / (w_j - W_k).  A column with a
    node |(w_j - W_k) t| < 1e-6 takes that node from `phi_diff_quotient`
    (phi_t' at the midpoint).
    """
    return _integrated(bath, freqs, t, config)[1].copy()
