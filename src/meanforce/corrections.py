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
`bath.stacked_tables` is the one tabulation of the tables and the generators:
each bath once, over the union of its couplings' Bohr frequencies.  The
dynamical and steady-state tables read K and Y_dyn off that bath's one
long-time Redfield pair (`bath.redfield_pair_matrices` at t = oo).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import DEFAULT_QUAD, _diff_quotient, _raise_failed, adaptive_quad, principal_value
from .bath import (
    OhmicBath,
    S_finite_time,
    _check_atom_pole,
    _long_time_pair,
    as_measure,
    bath_list,
    gamma_finite_time,
    lamb_shift_S,
    measure_value,
    redfield_pair_matrices,
    stacked_tables,
)
from .errors import DetailedBalanceError, DomainError, NearDegenerateError, ValidationError
from .operators import UpsilonTable

_EXP_GUARD = 300.0  # |beta*w| beyond which thermal-ratio formulas overflow


def _exp_factor(x):
    """e^x by math.exp, elementwise for an array."""
    if np.ndim(x):
        return np.array([_exp_factor(v) for v in np.ravel(x)]).reshape(np.shape(x))
    if abs(x) > _EXP_GUARD:
        raise DomainError(f"thermal exponent beta*w = {x:g} out of supported range")
    return math.exp(x)


# --- stable building blocks -------------------------------------------------
#
# E(x) = (e^{beta x} - 1)/x       (E(0) = beta), and (1 - e^{-beta u})/u = E(-u);
# entire up to the removable point; difference quotients of E switch to
# a midpoint-derivative branch once the increment is below 1e-5/beta, a
# crossover validated against extended-precision evaluation in the tests.


def _E(x, beta):
    x = np.asarray(x, dtype=float)
    bx = beta * x
    small = np.abs(bx) < 1e-12
    safe = np.where(small, 1.0, x)
    return np.where(small, beta * (1.0 + 0.5 * bx), np.expm1(beta * safe) / safe)


def _E_prime(x, beta):
    x = np.asarray(x, dtype=float)
    bx = beta * x
    small = np.abs(bx) < 1e-4
    safe = np.where(small, 1.0, x)
    exact = (beta * safe * np.exp(beta * safe) - np.expm1(beta * safe)) / safe**2
    series = beta**2 * (0.5 + bx * (2.0 / 6.0 + bx * (3.0 / 24.0 + bx * 4.0 / 120.0)))
    return np.where(small, series, exact)


def _E_diff_quotient(x, x0, beta):
    """(E(x) - E(x0)) / (x - x0), midpoint-derivative branch for small gaps; x0 broadcasts."""
    x = np.asarray(x, dtype=float)
    return _diff_quotient(_E(x, beta) - _E(x0, beta), x - x0, beta, 1e-5,
                          lambda small: _E_prime(0.5 * (x[small] + np.broadcast_to(x0, x.shape)[small]),
                                                 beta))


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
    beta = measure.beta
    if representation == "S_form":
        if w == wp:
            raise DomainError("S-form representation is singular at w = w'")
        ew, ewp = _exp_factor(beta * w), _exp_factor(beta * wp)
        if abs(ew - ewp) < 1e-12 * max(ew, ewp):
            raise NearDegenerateError(f"thermal denominator vanishes for ({w:g}, {wp:g})")
        s = lambda x: lamb_shift_S(measure, x, config)
        num = ew * s(wp) - ewp * s(w) + _exp_factor(beta * (w + wp)) * (s(-wp) - s(-w))
        return num / (ew - ewp)
    if representation != "kernel":
        raise ValidationError(f"unknown representation {representation!r}")
    values, failed = _mean_force_kernel(measure, [w], [wp], config)
    _raise_failed(failed)
    return float(values[0])


def _mean_force_kernel(measure, w, wp, config):
    """(Y_mf(w_k, w'_k) of the kernel representation, {k: message} of the failed entries)
    over the pairs of two equal-length frequency lists, in one batched integral."""
    beta = measure.beta
    w, wp = np.array(w, dtype=float), np.array(wp, dtype=float)
    total = np.zeros(w.size)
    for loc, wgt in measure.atoms:
        total += wgt * kernel_D(beta, w, wp, loc) / (2.0 * np.pi)
    failed = {}
    if measure.density is not None:
        hi = measure.support + np.abs(w) + np.abs(wp) + 1.0

        def folded(om, k):
            wk, wpk = w[k, None], wp[k, None]
            return measure.density(om) * (
                kernel_D(beta, wk, wpk, om) + _kernel_D_folded_negative(beta, wk, wpk, om)
            )

        integral, _, failed = adaptive_quad(folded, np.zeros(w.size), hi, config)
        total += integral / (2.0 * np.pi)
    return total, failed


def upsilon_dynamical(bath, w, wp, config=DEFAULT_QUAD):
    """Lamb-Stark coefficient Y_dyn(w,w') = S(w,w',oo) = (S(w)+S(w'))/2 + i(gamma(w)-gamma(wp))/4."""
    return S_finite_time(bath, w, wp, np.inf, config)


# --- Kossakowski specifications ----------------------------------------------


@dataclass(frozen=True)
class KossakowskiSpec:
    """Long-time Kossakowski matrix K and dynamical coefficient of one generator.

    kind is "redfield", "secular" or "custom"; kmat/dyn map
    (alpha, beta, w, w') -> complex.  Couplings attached to distinct
    reservoirs have vanishing cross entries.
    """

    kind: str
    beta: float
    kmat: object = field(compare=False)
    dyn: object = field(compare=False)

    def K(self, a, b, w, wp):
        return self.kmat(a, b, w, wp)

    def upsilon_dyn(self, a, b, w, wp):
        return self.dyn(a, b, w, wp)

    def check_detailed_balance(self, freqs, n_couplings=1, rel_tol=1e-9):
        """Verify K_ab(w,w) = K_ba(-w,-w) e^{beta w} on the given frequencies."""
        for w in freqs:
            for a in range(n_couplings):
                for b in range(n_couplings):
                    lhs = self.K(a, b, w, w)
                    rhs = self.K(b, a, -w, -w) * _exp_factor(self.beta * w)
                    scale = max(abs(lhs), abs(rhs), 1e-30)
                    if abs(lhs - rhs) > rel_tol * scale:
                        raise DetailedBalanceError(
                            f"K({a},{b};{w:g},{w:g}) breaks detailed balance: "
                            f"{lhs:.6e} vs {rhs:.6e}"
                        )


def _long_time_spec(kind, baths, kmat, config):
    """Spec with K from kmat(measure, w, w') and Y_dyn = S(w,w',oo); zero across independent baths."""
    bath_of = (lambda a: baths[a]) if isinstance(baths, (list, tuple)) else (lambda a: baths)

    def per_pair(rule):
        def value(a, b, w, wp):
            return rule(as_measure(bath_of(a)), w, wp) if bath_of(a) is bath_of(b) else 0.0

        return value

    dyn = per_pair(lambda m, w, wp: S_finite_time(m, w, wp, np.inf, config))
    return KossakowskiSpec(kind, as_measure(bath_of(0)).beta, per_pair(kmat), dyn)


def kossakowski_redfield(baths, config=DEFAULT_QUAD):
    """Long-time Bloch-Redfield spec: K = gamma(w,w',oo), Y_dyn = S(w,w',oo)."""
    return _long_time_spec(
        "redfield", baths, lambda m, w, wp: gamma_finite_time(m, w, wp, np.inf, config), config)


def kossakowski_secular(baths, config=DEFAULT_QUAD):
    """Secular dissipator spec: K = gamma(w) delta_{w,w'}.

    Only the dissipative part is secularised; the dynamical coefficient stays
    the full one, so the steady-state coherences of this generator equal the
    dynamical correction.  (The Davies generator secularises the Hamiltonian
    part as well; that variant lives in the generator builder.)
    """
    return _long_time_spec(
        "secular", baths, lambda m, w, wp: measure_value(m, w) if w == wp else 0.0, config)


def kossakowski_custom(beta, kmat, dyn):
    return KossakowskiSpec("custom", beta, kmat, dyn)


def upsilon_steady_offdiag(spec, bath, w, wp, alpha=0, beta_idx=0, config=DEFAULT_QUAD):
    """Steady-state coherence coefficient Y_st(w, w'), w != w', for a generator
    described by a Kossakowski spec whose diagonal obeys detailed balance.

    Everything comes from `spec`; `bath` and `config` are not read and are
    kept for API compatibility."""
    if w == wp:
        raise DomainError("steady-state coherence formula requires w != w'")
    b = spec.beta
    ew, ewp = _exp_factor(b * w), _exp_factor(b * wp)
    if abs(ew - ewp) < 1e-12 * max(ew, ewp):
        raise NearDegenerateError(
            f"e^{{beta w}} - e^{{beta w'}} below resolution for ({w:g}, {wp:g})"
        )
    spec.check_detailed_balance(sorted({abs(w), abs(wp)}), max(alpha, beta_idx) + 1)
    dyn = spec.upsilon_dyn(alpha, beta_idx, w, wp)
    bracket = _exp_factor(b * (w + wp)) * spec.K(beta_idx, alpha, -wp, -w) \
        - 0.5 * spec.K(alpha, beta_idx, w, wp) * (ew + ewp)
    return dyn + 1j * bracket / (ew - ewp)


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
    beta = measure.beta
    for x in w:
        _check_atom_pole(measure, x)
    total = np.zeros(w.size)
    for loc, wgt in measure.atoms:
        d = loc - w
        total += wgt * _E(-d, beta) / d / np.pi
    failed = {}
    if measure.density is not None:
        ebw = _exp_factor(beta * w)

        def integrand(om, k):
            wk, ek = w[k, None], ebw[k, None]
            return measure.density(om) * (
                _E(wk - om, beta) / (om - wk) - ek * _E(-(om + wk), beta) / (om + wk)
            ) / np.pi

        pv, _, failed = principal_value(integrand, np.abs(w), 0.0, measure.support + np.abs(w) + 1.0,
                                        measure.scale, config)
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
    with w_a = J and w_s = J coth(beta W / 2).
    """
    if not isinstance(bath, OhmicBath):
        raise ValidationError("closed-form <sigma_x> is implemented for Ohmic baths")
    if omega0 <= 0:
        raise ValidationError("omega0 must be positive")
    if f1 == 0.0 or f2 == 0.0:
        return 0.0
    beta, gc, wc = bath.beta, bath.coupling, bath.cutoff
    th = math.tanh(0.5 * beta * omega0)
    measure = as_measure(bath)

    def spectral_parts(om):
        om = np.asarray(om, dtype=float)
        j = gc * om * np.exp(-om / wc)
        x = 0.5 * beta * om
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(np.abs(x) < 1e-8, 1.0 + x * x / 3.0,
                         x / np.tanh(np.where(np.abs(x) < 1e-8, 1.0, x)))
        j_coth = gc * np.exp(-om / wc) * (2.0 / beta) * g  # J(W) coth(beta W/2)
        return j, j_coth

    def integrand(om):
        # 1/(W^2 - w^2) = -1/((w-W)(W+w)); both pieces share the pole at W = w
        om = np.asarray(om, dtype=float)
        j, j_coth = spectral_parts(om)
        g1 = -omega0 * th * j_coth / (om + omega0)
        g2 = omega0**2 * j / (np.where(om == 0.0, 1.0, om) * (om + omega0))
        g2 = np.where(om == 0.0, omega0 * gc, g2)
        return (g1 + g2) / (omega0 - om)

    value = principal_value(integrand, omega0, 0.0, measure.support + omega0, measure.scale, config)
    return -4.0 * lam**2 * f1 * f2 / omega0 * value


# --- full coefficient tables ---------------------------------------------------


def _pair_view(beta, freqs, kmat, dyn):
    """A spec whose K and Y_dyn look up the long-time pair (kmat, dyn) over `freqs`.
    Python complex scalars, as the per-entry spec returns, keep every cell's bits."""
    at = {w: i for i, w in enumerate(freqs)}
    return kossakowski_custom(beta, lambda a, b, w, wp: complex(kmat[at[w], at[wp]]),
                              lambda a, b, w, wp: complex(dyn[at[w], at[wp]]))


def _bath_table(kind, measure, freqs, config):
    """One bath's n x n table of a correction over its frequency list.  The
    mean-force table is one batched integral over all n^2 entries.  The
    dynamical and steady-state tables read one long-time Redfield pair (K, Y_dyn);
    the steady-state coherences w != w' pass a view of it, over the list closed
    under w -> -w, to `upsilon_steady_offdiag`, and its diagonal is the gauge zero."""
    if kind == "mean_force":
        n = len(freqs)
        values, failed = _mean_force_kernel(measure, np.repeat(freqs, n), np.tile(freqs, n), config)
        _raise_failed(failed)
        return values.reshape(n, n)
    if kind == "dynamical":
        return redfield_pair_matrices(measure, freqs, np.inf, config)[1]
    closed = sorted(set(freqs) | {-w for w in freqs})
    view = _pair_view(measure.beta, closed, *redfield_pair_matrices(measure, closed, np.inf, config))
    return [[0.0 if w == wp else upsilon_steady_offdiag(view, measure, w, wp, config=config)
             for wp in freqs] for w in freqs]


def _qubit_sweep(measure, w0, config):
    """The qubit sweep's coefficient combinations at every w0 > 0 of an array, each
    integral one batched call over all points: S(w) over the union of (-w0, 0, w0),
    four mean-force entries and T(+-w0) per point.

    Returns (points, failures): per point kind -> (Y(0,-w0) - Y(w0,0),
    Y(w0,w0) - Y(-w0,-w0)) for "mf", "dyn", "st_redfield" and "st_cumulant"
    (whose diagonal is T(w0)/2beta - T(-w0)/2beta), or None where one of its
    integrals failed, and that integral's message, or None.  A failed integral
    fails only the points that read it (S(0) is read by all).
    """
    n, zero = w0.size, np.zeros(w0.size)
    freqs = sorted(set(np.concatenate([-w0, zero, w0]).tolist()))
    (kmat, dyn), s_failed = _long_time_pair(measure, freqs, config)
    view = _pair_view(measure.beta, freqs, kmat, dyn)
    # (0, -w0), (w0, 0), (w0, w0), (-w0, -w0) per point
    mf, mf_failed = _mean_force_kernel(measure, np.stack([zero, w0, w0, -w0], 1).ravel(),
                                       np.stack([-w0, zero, w0, -w0], 1).ravel(), config)
    balance, t_failed = _balance_integrals(measure, np.concatenate([w0, -w0]), config)
    cp, cm = np.split(balance / (2.0 * measure.beta), 2)
    points, failures = [], []
    for i, w in enumerate(w0.tolist()):
        im, i0, ip = freqs.index(-w), freqs.index(0.0), freqs.index(w)
        msgs = [s_failed.get(im), s_failed.get(i0), s_failed.get(ip)]
        msgs += [mf_failed.get(j) for j in range(4 * i, 4 * i + 4)] + [t_failed.get(i), t_failed.get(n + i)]
        failures.append(next((m for m in msgs if m is not None), None))
        if failures[-1] is not None:
            points.append(None)
            continue
        st_off = (upsilon_steady_offdiag(view, measure, 0.0, -w, config=config)
                  - upsilon_steady_offdiag(view, measure, w, 0.0, config=config))
        points.append({
            "mf": (mf[4 * i] - mf[4 * i + 1], mf[4 * i + 2] - mf[4 * i + 3]),
            "dyn": (dyn[i0, im] - dyn[ip, i0], dyn[ip, ip] - dyn[im, im]),
            "st_redfield": (st_off, 0.0),
            "st_cumulant": (st_off, cp[i] - cm[i]),
        })
    return points, failures


def build_upsilon_table(kind, jumps, baths, equation="redfield", config=DEFAULT_QUAD):
    """Tabulate a correction over all coupling pairs and Bohr-frequency pairs.

    kind: "dynamical", "mean_force" or "steady_state"; for steady_state the
    `equation` selects the generator ("redfield" or "cumulant").  Steady-state
    diagonals follow the gauge Y_st(0,0) = 0; the cumulant diagonal is only
    known for a two-level system with a single coupling.  Arguments are checked
    before any integral; each bath is tabulated once (`bath.stacked_tables`).
    """
    if kind not in ("dynamical", "mean_force", "steady_state"):
        raise ValidationError(f"unknown table kind {kind!r}")
    if equation not in ("redfield", "cumulant"):
        raise ValidationError(f"unknown equation kind {equation!r}")
    cumulant_diag = kind == "steady_state" and equation == "cumulant"
    if cumulant_diag and (jumps[0].dim != 2 or len(jumps) != 1):
        raise NotImplementedError(
            "cumulant steady-state diagonal is only solved for a "
            "two-level system with a single coupling"
        )
    baths = bath_list(baths, len(jumps))
    values, shared = stacked_tables(jumps, baths, lambda m, f: _bath_table(kind, m, f, config))
    stacked = itertools.count()
    slots = [[(next(stacked), w) for w in j.frequencies] for j in jumps]  # (index, w) per coupling
    entries = {}  # insertion order (a, b, w, w') fixes the summation order of assemble_correction
    for (a, slots_a), (b, slots_b) in itertools.product(enumerate(slots), repeat=2):
        for (i, w), (j, wp) in itertools.product(slots_a, slots_b):
            if shared[i, j] and not (kind == "steady_state" and w == wp and a != b):
                entries[(a, b, w, wp)] = complex(values[i, j])

    w0 = max(abs(w) for w in jumps[0].frequencies)
    if cumulant_diag and w0 > 0:  # a pure-dephasing qubit (w0 = 0) keeps the zero gauge
        plus, minus = tls_diagonal_steady(baths[0], w0, "cumulant", config)
        diag = {w0: plus, -w0: minus}
        entries.update({(0, 0, w, w): complex(diag.get(w, 0.0)) for w in jumps[0].frequencies})
    return UpsilonTable(kind, entries)
