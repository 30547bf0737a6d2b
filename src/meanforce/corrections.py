"""Second-order correction coefficients: dynamical, mean-force, steady-state.

All three corrections are tables Y(w, w') multiplying A(w)^dag A(w') in the
jump-operator basis.  With S(w) the Lamb shift and gamma(w) the spectral
function of the bath:

* dynamical (Lamb-Stark):  Y_dyn(w,w') = (S(w)+S(w'))/2 + i (gamma(w)-gamma(w'))/4
* mean-force (two equivalent representations):
    kernel:  Y_mf(w,w') = (1/2pi) int dW D(w,w',W) gamma(W),
             D = -(int_0^beta dt int_0^t ds e^{t(w-w')} e^{s(w'-W)}) / int_0^beta dt e^{t(w-w')},
             a pole-free kernel with removable limits handled exactly;
    S-form:  Y_mf(w,w') = [e^{bw} S(w') - e^{bw'} S(w)
                           + e^{b(w+w')} (S(-w') - S(-w))] / (e^{bw} - e^{bw'}).
* steady-state coherences (w != w'), for any generator with Kossakowski matrix
  K obeying detailed balance on the diagonal:
    Y_st(w,w') = Y_dyn(w,w')
        + i [e^{b(w+w')} K_ba(-w',-w) - K_ab(w,w') (e^{bw}+e^{bw'})/2] / (e^{bw}-e^{bw'}).
* steady-state diagonal of a two-level system: zero for any second-order
  generator obeying detailed balance, while the cumulant equation gives
    Y_st(w,w) = (1/2beta) int_0^oo ds (gamma(w,s) - e^{bw} gamma(-w,s))
              = Y_mf(w,w) - S(w),
  evaluated in the frequency domain as a principal-value integral.

For several couplings, indices (a, b) refer to couplings; pairs attached to
the same reservoir share one gamma, pairs on independent reservoirs vanish.
`operators.stacked_tables` is the one tabulation of the tables, the Kossakowski
specs and the generators: each bath once, over the union of its couplings' Bohr
frequencies.  The dynamical table and the Redfield spec read K and Y_dyn off that
bath's one long-time Redfield pair (`bath.redfield_pair_matrices` at t = oo).
`_steady_offdiag` is the one route from a spec's (K, Y_dyn) arrays to Y_st, for the
steady-state tables (through the Redfield spec), the qubit sweep and
`upsilon_steady_offdiag` alike.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._quad import (
    DEFAULT_QUAD,
    _diff_quotient,
    _E,
    _E_diff_quotient,
    _E_prime,
    _raise_failed,
    adaptive_quad,
    principal_value,
)
from .bath import (
    OhmicBath,
    S_finite_time,
    _check_atom_pole,
    _edges,
    _lamb_shifts,
    _long_time_pair,
    as_measure,
    redfield_pair_matrices,
)
from .errors import DetailedBalanceError, DomainError, NearDegenerateError, ValidationError
from .operators import UpsilonTable, _stacked_jumps, bath_list, stacked_tables

_EXP_GUARD = 300.0  # |beta*w| beyond which thermal-ratio formulas overflow


def _exp_factor(x):
    """e^x elementwise; DomainError names the first exponent beyond the guard."""
    x = np.asarray(x, dtype=float)
    bad = np.flatnonzero(np.abs(x) > _EXP_GUARD)
    if bad.size:
        raise DomainError(f"thermal exponent beta*w = {x.flat[bad[0]]:g} out of supported range")
    return np.exp(x)


def kernel_D(beta, w, wp, big_omega):
    """Mean-force kernel D(w, w', W); total function, all removable limits filled.

    Evaluated as D = -(E(w - W) - E(a)) / ((w' - W) E(a)) with a = w - w',
    which reproduces the textbook form away from the removable points and the
    diagonal form (1 - e^{b(w-W)} + b(w-W)) / (b (w-W)^2) at w = w'.  w, w'
    and W broadcast against each other; all scalars give a float.
    """
    if beta <= 0:
        raise ValidationError("beta must be positive")
    a = np.subtract(w, wp)
    x = w - np.asarray(big_omega, dtype=float)
    val = -_E_diff_quotient(x, a, beta) / _E(a, beta)
    return val if np.ndim(val) else float(val)


def _kernel_D_folded_negative(beta, w, wp, big_omega):
    """e^{-beta W} D(w, w', -W) for W >= 0, computed without large exponentials.

    e^{-bW} E(w + W) = e^{bw} E(-w - W), so the numerator
    N(W) = e^{bw} E(-w-W) - e^{-bW} E(a) stays bounded; its zero at W = -w'
    is removable and handled by a midpoint-derivative branch.  w and w'
    broadcast against W.
    """
    a = np.subtract(w, wp)
    big_omega = np.asarray(big_omega, dtype=float)
    ea = _E(a, beta)
    ebw = _exp_factor(beta * np.asarray(w, dtype=float))
    num = ebw * _E(-(w + big_omega), beta) - np.exp(-beta * big_omega) * ea

    def nprime(small):  # derivative of N at the midpoint of [W, -w']
        w_s, wp_s, ebw_s, ea_s = (np.broadcast_to(v, num.shape)[small] for v in (w, wp, ebw, ea))
        mid = 0.5 * (big_omega[small] + (-wp_s))
        return -ebw_s * _E_prime(-(w_s + mid), beta) + beta * np.exp(-beta * mid) * ea_s

    return -_diff_quotient(num, wp + big_omega, beta, 1e-5, nprime) / ea


def upsilon_mean_force(bath, w, wp, representation="kernel", config=DEFAULT_QUAD):
    """Mean-force coefficient Y_mf(w, w'), real for a single real coupling.

    representation="kernel" integrates the pole-free kernel D against gamma
    (any w, w'); "S_form" uses the Lamb-shift combination and requires w != w'.
    """
    measure = as_measure(bath)
    if representation == "S_form":
        return float(_mean_force_s_form(measure, [w], [wp], config)[0])
    if representation != "kernel":
        raise ValidationError(f"unknown representation {representation!r}")
    values, failed = _mean_force_kernel(measure, [w], [wp], config)
    _raise_failed(failed)
    return float(values[0])


def _mean_force_s_form(measure, w, wp, config):
    """Y_mf(w_k, w'_k) of the S-form over pairs, from one `_lamb_shifts` call; a failed S(w) raises."""
    w, wp = np.array([w, wp], dtype=float)
    if np.any(w == wp):
        raise DomainError("S-form representation is singular at w = w'")
    ew, ewp = _exp_factor(measure.beta * w), _exp_factor(measure.beta * wp)
    near = np.flatnonzero(np.abs(ew - ewp) < 1e-12 * np.maximum(ew, ewp))
    if near.size:
        raise NearDegenerateError(f"thermal denominator vanishes for ({w[near[0]]:g}, {wp[near[0]]:g})")
    s, failed = _lamb_shifts(measure, np.concatenate([wp, w, -wp, -w]).tolist(), config)
    _raise_failed(failed)
    s_wp, s_w, s_mwp, s_mw = np.split(s, 4)
    return (ew * s_wp - ewp * s_w + _exp_factor(measure.beta * (w + wp)) * (s_mwp - s_mw)) / (ew - ewp)


def _mean_force_kernel(measure, w, wp, config):
    """(Y_mf(w_k, w'_k) of the kernel representation, {k: message} of the failed entries)
    over the pairs of two equal-length frequency lists, in one batched integral."""
    beta, total = measure.beta, np.zeros(len(w))
    w, wp = np.array([w, wp], dtype=float)
    for loc, wgt in measure.atoms:
        total += wgt * kernel_D(beta, w, wp, loc) / (2.0 * np.pi)
    failed = {}
    if measure.density is not None:
        _exp_factor(beta * w)  # the integrand's guard, before its kernel can overflow (beta = 1e300)
        hi = measure.support + np.abs(w) + np.abs(wp) + 1.0

        def folded(om, k):
            wk, wpk = w[k, None], wp[k, None]
            return measure.density(om) * (
                kernel_D(beta, wk, wpk, om) + _kernel_D_folded_negative(beta, wk, wpk, om)
            )

        integral, _, failed = adaptive_quad(folded, 0.0, hi, config, _edges(measure, hi))
        total += integral / (2.0 * np.pi)
    return total, failed


def upsilon_dynamical(bath, w, wp, config=DEFAULT_QUAD):
    """Lamb-Stark coefficient Y_dyn(w,w') = S(w,w',oo) = (S(w)+S(w'))/2 + i(gamma(w)-gamma(wp))/4."""
    return S_finite_time(bath, w, wp, np.inf, config)


# --- Kossakowski specifications and the steady-state coherences ---------------


@dataclass(frozen=True)
class KossakowskiSpec:
    """Long-time Kossakowski matrix K and dynamical coefficient Y_dyn of one generator.

    kind is "redfield", "secular" or "custom".  `stacked(n, coupling, freqs)` gives both
    as complex (N, N) arrays over a stacked index of n couplings: a bath kind hands its
    pair rule (bath, freqs) -> (K, Y_dyn) to `stacked_tables`, once per distinct bath of
    `baths` (zero across distinct baths; "secular" keeps K on w = w' only), "custom"
    calls its two callables (a, b, w, w') once per entry.  `tables(n, freqs)` is the
    stacked index of n couplings x m frequencies as (n, n, m, m) arrays; the rest look
    up a tabulation.
    """

    kind: str
    beta: float
    rule: object = field(compare=False)
    baths: tuple = field(default=None, compare=False)

    def stacked(self, n, coupling, freqs):
        if self.baths is None:
            keys = list(zip(coupling.tolist(), freqs.tolist()))
            grid = itertools.product(keys, repeat=2)
            return np.array([[f(a, b, w, wp) for f in self.rule] for (a, w), (b, wp) in grid],
                            dtype=complex).T.reshape(2, len(keys), len(keys))
        out = stacked_tables(coupling, freqs, bath_list(self.baths[:n], n), self.rule)[0]
        if self.kind == "secular":
            out[0] *= np.equal.outer(freqs, freqs)
        return out

    def tables(self, n, freqs):
        m = len(freqs)
        out = self.stacked(n, np.repeat(np.arange(n), m), np.tile(np.array(freqs, dtype=float), n))
        return out.reshape(2, n, m, n, m).swapaxes(2, 3)

    def K(self, a, b, w, wp):
        return complex(self.tables(max(a, b) + 1, (w, wp))[0, a, b, 0, 1])

    def upsilon_dyn(self, a, b, w, wp):
        return complex(self.tables(max(a, b) + 1, (w, wp))[1, a, b, 0, 1])

    def check_detailed_balance(self, freqs, n_couplings=1, rel_tol=1e-9):
        """Verify K_ab(w,w) = K_ba(-w,-w) e^{beta w} on the given frequencies."""
        closed = _closed(freqs)
        _check_detailed_balance(self.beta, closed, self.tables(n_couplings, closed)[0], rel_tol)


def kossakowski_redfield(baths, config=DEFAULT_QUAD):
    """Long-time Bloch-Redfield spec: K = gamma(w,w',oo), Y_dyn = S(w,w',oo)."""
    baths = tuple(baths) if isinstance(baths, (list, tuple)) else (baths,)
    return KossakowskiSpec("redfield", as_measure(baths[0]).beta,
                           partial(redfield_pair_matrices, t=np.inf, config=config), baths)


def kossakowski_secular(baths, config=DEFAULT_QUAD):
    """Secular dissipator spec: K = gamma(w) delta_{w,w'}, the Redfield pair's w = w' entries.

    Only the dissipative part is secularised; the dynamical coefficient stays
    the full one, so the steady-state coherences of this generator equal the
    dynamical correction.  (The Davies generator secularises the Hamiltonian
    part as well; that variant lives in the generator builder.)
    """
    return replace(kossakowski_redfield(baths, config), kind="secular")


def kossakowski_custom(beta, kmat, dyn):
    return KossakowskiSpec("custom", beta, (kmat, dyn))


def _closed(freqs):  # the sorted list of freqs closed under w -> -w
    return sorted(set(freqs) | {-x for x in freqs})


def _check_detailed_balance(beta, freqs, kmat, rel_tol=1e-9):
    """Raise DetailedBalanceError unless K_ab(w,w) = K_ba(-w,-w) e^{beta w} at each w >= 0 of
    a sorted list closed under w -> -w (so -w sits at index -1 - k when w sits at k), in one
    comparison; the message names the first failing entry."""
    f = np.asarray(freqs, dtype=float)
    lhs = np.diagonal(kmat, 0, 2, 3)  # K_ab(w, w) at [a, b, w]
    rhs = lhs.swapaxes(0, 1)[..., ::-1] * _exp_factor(beta * f)
    bad = (np.abs(lhs - rhs) > rel_tol * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)) & (f >= 0)
    if bad.any():
        i, a, b = np.argwhere(np.moveaxis(bad, 2, 0))[0]
        raise DetailedBalanceError(f"K({a},{b};{f[i]:g},{f[i]:g}) breaks detailed balance: "
                                   f"{lhs[a, b, i]:.6e} vs {rhs[a, b, i]:.6e}")


def _steady_offdiag(beta, freqs, kmat, dyn, w, wp):
    """Y_st(w_k, w'_k) over two equal-length frequency arrays, from K and Y_dyn as (coupling,
    coupling, w, w') arrays over a sorted list closed under w -> -w that holds them; w = w'
    gives the gauge zero, and the thermal denominators and K's detailed balance are each
    one comparison."""
    f = np.asarray(freqs, dtype=float)
    i, j = np.searchsorted(f, w), np.searchsorted(f, wp)
    off, (ew, ewp) = i != j, _exp_factor(beta * f)[[i, j]]
    near = np.flatnonzero(off & (np.abs(ew - ewp) < 1e-12 * np.maximum(ew, ewp)))
    if near.size:
        raise NearDegenerateError(f"e^{{beta w}} - e^{{beta w'}} below resolution for "
                                  f"({f[i[near[0]]]:g}, {f[j[near[0]]]:g})")
    _check_detailed_balance(beta, f, kmat)
    mirror = kmat.swapaxes(0, 1)[..., -1 - j, -1 - i]  # K_ba(-w', -w)
    bracket = (_exp_factor(beta * np.where(off, f[i] + f[j], 0.0)) * mirror
               - 0.5 * kmat[..., i, j] * (ew + ewp))
    gap = ew - ewp
    with np.errstate(divide="ignore", invalid="ignore"):  # i bracket / gap, part by part as Python divides
        return np.where(off, dyn[..., i, j] + (-bracket.imag / gap + 1j * (bracket.real / gap)), 0.0)


def _spec_steady(spec, w, wp, alpha=0, beta_idx=0):
    """Y_st_ab(w_k, w'_k) of a spec over two equal-length frequency arrays, from one
    tabulation over their frequencies closed under w -> -w."""
    freqs = _closed(np.concatenate([w, wp]).tolist())
    tables = spec.tables(max(alpha, beta_idx) + 1, freqs)
    return _steady_offdiag(spec.beta, freqs, *tables, w, wp)[alpha, beta_idx]


def upsilon_steady_offdiag(spec, bath, w, wp, alpha=0, beta_idx=0, config=DEFAULT_QUAD):
    """Steady-state coherence coefficient Y_st(w, w'), w != w', for a generator
    described by a Kossakowski spec whose diagonal obeys detailed balance.

    Everything comes from `spec`; `bath` and `config` are not read and are
    kept for API compatibility."""
    if w == wp:
        raise DomainError("steady-state coherence formula requires w != w'")
    return complex(_spec_steady(spec, [w], [wp], alpha, beta_idx)[0])


def tls_time_integrated_balance(bath, w, config=DEFAULT_QUAD):
    """T(w) = int_0^oo ds (gamma(w,s) - e^{beta w} gamma(-w,s)).

    Each summand alone diverges linearly; detailed balance cancels the secular
    growth, leaving the principal-value integral
    (1/pi) PV int gamma(W) (1 - e^{beta(w-W)}) / (w-W)^2 dW, folded onto W >= 0
    as gamma(W) [E(w-W)/(W-w) - e^{beta w} E(-W-w)/(W+w)] with one simple pole
    at W = |w|.
    """
    values, failed = _balance_integrals(as_measure(bath), [w], config)
    _raise_failed(failed)
    return float(values[0])


def _balance_integrals(measure, w, config):
    """(T(w_k), {k: message} of the failed entries) over a frequency list, in one
    batched principal-value call with a pole at |w_k| for each entry."""
    w = np.array(w, dtype=float)
    if np.any(w == 0.0):
        raise DomainError("T(w) is defined for w != 0")
    beta, total = measure.beta, np.zeros(w.size)
    _check_atom_pole(measure, w)
    for loc, wgt in measure.atoms:
        total += wgt * _E(w - loc, beta) / (loc - w) / np.pi
    failed = {}
    if measure.density is not None:
        ebw = _exp_factor(beta * w)

        def integrand(om, k):
            wk, ek = w[k, None], ebw[k, None]
            return measure.density(om) * (
                _E(wk - om, beta) / (om - wk) - ek * _E(-(om + wk), beta) / (om + wk)
            ) / np.pi

        hi = measure.support + np.abs(w) + 1.0
        pv, _, failed = principal_value(integrand, np.abs(w), 0.0, hi, config, _edges(measure, hi))
        total += pv
    return total, failed


def tls_diagonal_steady(bath, omega0, equation, config=DEFAULT_QUAD):
    """Diagonal steady-state coefficients (Y_st(w0,w0), Y_st(-w0,-w0)) of a qubit.

    Any second-order generator obeying detailed balance pins both to zero (in
    the gauge Y_st(0,0) = 0); the cumulant equation gives Y_st(w,w) = T(w)/2beta,
    equal to Y_mf(w,w) - S(w).
    """
    if omega0 <= 0:
        raise ValidationError("omega0 must be positive")
    if equation == "redfield":
        return 0.0, 0.0
    if equation != "cumulant":
        raise ValidationError(f"unknown equation kind {equation!r}")
    measure = as_measure(bath)
    values, failed = _balance_integrals(measure, [omega0, -omega0], config)
    _raise_failed(failed)
    plus, minus = values / (2.0 * measure.beta)
    return float(plus), float(minus)


def guarnieri_sigma_x(bath, omega0, lam, f1, f2, config=DEFAULT_QUAD):
    """Equilibrium <sigma_x> of the qubit with couplings (f1 sigma_z + f2 sigma_x).

    Evaluates the closed-form principal-value expression
      -(4 lam^2 f1 f2 / w) PV int_0^oo dW [ w_s(W) w tanh(beta w/2)/(W^2-w^2)
                                            - w^2 w_a(W)/(W (W^2-w^2)) ]
    with w_a = J and w_s = J coth(beta W / 2), which are (gamma(W) -+ gamma(-W)) / 2pi
    for W > 0: gamma(+-W) = 2 pi J(W) (n(W) + 1/2 +- 1/2).
    """
    if not isinstance(bath, OhmicBath):
        raise ValidationError("closed-form <sigma_x> is implemented for Ohmic baths")
    if omega0 <= 0:
        raise ValidationError("omega0 must be positive")
    if f1 == 0.0 or f2 == 0.0:
        return 0.0
    th, measure = math.tanh(0.5 * bath.beta * omega0), as_measure(bath)

    def integrand(om, _):
        # 1/(W^2 - w^2) = -1/((w-W)(W+w)), one pole at W = w; no node sits on W = 0
        up, down = measure.density(om), measure.density(-om)
        return omega0 * (omega0 * (up - down) / om - th * (up + down)) / ((om + omega0) * (omega0 - om))

    hi = measure.support + omega0
    value, _, failed = principal_value(integrand, [omega0], 0.0, hi, config, _edges(measure, hi))
    _raise_failed(failed)
    return -2.0 * lam**2 * f1 * f2 / (np.pi * omega0) * float(value[0])


# --- full coefficient tables ---------------------------------------------------


def _bath_table(kind, bath, freqs, config):
    """One bath's n x n table of a correction over its frequency list: the mean force in one
    batched integral, the dynamical table from the long-time Redfield pair (K, Y_dyn), the
    steady-state table from the Redfield spec (`_spec_steady`, with a zero diagonal)."""
    if kind == "dynamical":
        return redfield_pair_matrices(bath, freqs, np.inf, config)[1]
    n = len(freqs)
    w, wp = np.repeat(freqs, n), np.tile(freqs, n)
    if kind == "mean_force":
        values, failed = _mean_force_kernel(as_measure(bath), w, wp, config)
        _raise_failed(failed)
        return values.reshape(n, n)
    return _spec_steady(kossakowski_redfield(bath, config), w, wp).reshape(n, n)


SWEEP_KINDS = ("mf", "dyn", "st_redfield", "st_cumulant")
SWEEP_NAMES = ("offdiag_re", "offdiag_im", "diag_diff")
SWEEP_BW0 = tuple(float(v) for v in np.linspace(0.1, 5.0, 20))  # the default beta*w0 grid


def qubit_sweep_point(bath, w0, gamma_c, config=DEFAULT_QUAD):
    """Normalised coefficient combinations of a qubit at each w0 > 0 of a list.

    Returns (values, failures).  values[p, k, n] is the name SWEEP_NAMES[n] of the
    kind SWEEP_KINDS[k] at point p, with the figure's axis normalisation
    beta * [Y_k(0,-w0) - Y_k(w0,0)] / gamma_c (re, im) and
    beta * [Y_k(w0,w0) - Y_k(-w0,-w0)] / gamma_c, where st_cumulant's Y(w,w) is T(w)/2beta.
    Each integral is one batched call over all points: the S(w) over the union of
    (-w0, 0, w0), the four mean-force kernels and T(+-w0) of every point.  A failed
    integral fails only the points that read it (S(0) is read by all): their rows are
    nan, and their failures hold its message, the others None.
    """
    w0 = np.array(w0, dtype=float)
    if not (w0.size and w0.min() > 0):
        raise ValidationError("omega0 must be a non-empty list of positive values")
    measure, n, zero = as_measure(bath), w0.size, np.zeros(w0.size)
    freqs = _closed([0.0, *w0.tolist()])
    (kmat, dyn), s_failed = _long_time_pair(measure, freqs, config)
    ip = np.searchsorted(freqs, w0)
    im, i0 = len(freqs) - 1 - ip, len(freqs) // 2  # a closed sorted list mirrors w -> -w
    st = _steady_offdiag(measure.beta, freqs, kmat[None, None], dyn[None, None],
                         np.r_[zero, w0], np.r_[-w0, zero])[0, 0]
    st_off = st[:n] - st[n:]
    # (0, -w0), (w0, 0), (w0, w0), (-w0, -w0) per point
    mf, mf_failed = _mean_force_kernel(measure, np.stack([zero, w0, w0, -w0], 1).ravel(),
                                       np.stack([-w0, zero, w0, -w0], 1).ravel(), config)
    balance, t_failed = _balance_integrals(measure, np.concatenate([w0, -w0]), config)
    cp, cm = np.split(balance / (2.0 * measure.beta), 2)
    off = np.stack([mf[0::4] - mf[1::4], dyn[i0, im] - dyn[ip, i0], st_off, st_off], 1)
    diag = np.stack([mf[2::4] - mf[3::4], (dyn[ip, ip] - dyn[im, im]).real, zero, cp - cm], 1)
    values = np.stack([off.real, off.imag, diag], 2)
    failures = [next(filter(None, [s_failed.get(im[i]), s_failed.get(i0), s_failed.get(ip[i]),
                                   *map(mf_failed.get, range(4 * i, 4 * i + 4)), t_failed.get(i),
                                   t_failed.get(n + i)]), None) for i in range(n)]
    values[[m is not None for m in failures]] = np.nan
    return values * (bath.beta / gamma_c), failures


def build_upsilon_table(kind, jumps, baths, equation="redfield", config=DEFAULT_QUAD):
    """Tabulate a correction over all coupling pairs and Bohr-frequency pairs.

    kind: "dynamical", "mean_force" or "steady_state"; for steady_state the
    `equation` selects the generator ("redfield" or "cumulant").  Steady-state
    diagonals follow the gauge Y_st(0,0) = 0; the cumulant diagonal is only
    known for a two-level system with a single coupling.  Arguments are checked
    before any integral; each bath is tabulated once (`operators.stacked_tables`).
    """
    if kind not in ("dynamical", "mean_force", "steady_state"):
        raise ValidationError(f"unknown table kind {kind!r}")
    if equation not in ("redfield", "cumulant"):
        raise ValidationError(f"unknown equation kind {equation!r}")
    baths = bath_list(baths, len(jumps))
    cumulant_diag = kind == "steady_state" and equation == "cumulant"
    if cumulant_diag and (jumps[0].dim != 2 or len(jumps) != 1):
        raise NotImplementedError("cumulant steady-state diagonal is only solved for a "
                                  "two-level system with a single coupling")
    coupling, stacked, _ = _stacked_jumps(jumps)
    values, keep = stacked_tables(coupling, stacked, baths, lambda b, f: _bath_table(kind, b, f, config))
    if cumulant_diag and stacked.max() > 0:  # a pure-dephasing qubit (w0 = 0) keeps the zero gauge
        plus, minus = tls_diagonal_steady(baths[0], float(stacked.max()), "cumulant", config)
        np.fill_diagonal(values, np.select([stacked > 0, stacked < 0], [plus, minus]))
    if kind == "steady_state":  # no entry for the cross-coupling w = w' coherences
        keep = keep & ~(np.equal.outer(stacked, stacked) & np.not_equal.outer(coupling, coupling))
    return UpsilonTable._of_arrays(kind, coupling, stacked, values, keep)
