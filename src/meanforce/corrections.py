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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import DEFAULT_QUAD, adaptive_quad, principal_value
from .bath import OhmicBath, as_measure, lamb_shift_S, measure_value, pair_measure
from .errors import (
    DetailedBalanceError,
    DomainError,
    NearDegenerateError,
    PoleError,
    ValidationError,
)
from .operators import UpsilonTable

_EXP_GUARD = 300.0  # |beta*w| beyond which thermal-ratio formulas overflow


def _exp_factor(x):
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
    """(E(x) - E(x0)) / (x - x0), midpoint-derivative branch for small gaps."""
    x = np.asarray(x, dtype=float)
    d = x - x0
    small = np.abs(beta * d) < 1e-5
    dsafe = np.where(small, 1.0, d)
    direct = (_E(x, beta) - _E(x0, beta)) / dsafe
    mid = _E_prime(0.5 * (x + x0), beta)
    return np.where(small, mid, direct)


def kernel_D(beta, w, wp, big_omega):
    """Mean-force kernel D(w, w', W); total function, all removable limits filled.

    Evaluated as D = -(E(w - W) - E(a)) / ((w' - W) E(a)) with a = w - w',
    which reproduces the textbook form away from the removable points and the
    diagonal form (1 - e^{b(w-W)} + b(w-W)) / (b (w-W)^2) at w = w'.
    """
    if beta <= 0:
        raise ValidationError("beta must be positive")
    a = w - wp
    x = w - np.asarray(big_omega, dtype=float)
    val = -_E_diff_quotient(x, a, beta) / _E(a, beta)
    return val if np.ndim(big_omega) else float(val)


def _kernel_D_folded_negative(beta, w, wp, big_omega):
    """e^{-beta W} D(w, w', -W) for W >= 0, computed without large exponentials.

    e^{-bW} E(w + W) = e^{bw} E(-w - W), so the numerator
    N(W) = e^{bw} E(-w-W) - e^{-bW} E(a) stays bounded; its zero at W = -w'
    is removable and handled by a midpoint-derivative branch.
    """
    a = w - wp
    big_omega = np.asarray(big_omega, dtype=float)
    ea = float(_E(a, beta))
    ebw = _exp_factor(beta * w)
    num = ebw * _E(-(w + big_omega), beta) - np.exp(-beta * big_omega) * _E(a, beta)
    den = wp + big_omega
    small = np.abs(beta * den) < 1e-5
    densafe = np.where(small, 1.0, den)
    direct = num / densafe
    # derivative of N at the midpoint of [W, -w']
    mid = 0.5 * (big_omega + (-wp))
    nprime = -ebw * _E_prime(-(w + mid), beta) + beta * np.exp(-beta * mid) * ea
    return -np.where(small, nprime, direct) / ea


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

    total = 0.0
    for loc, wgt in measure.atoms:
        total += wgt * kernel_D(beta, w, wp, loc) / (2.0 * np.pi)
    if measure.density is not None:
        hi = measure.support + abs(w) + abs(wp) + 1.0

        def folded(om):
            om = np.asarray(om)
            return measure.density(om) * (
                kernel_D(beta, w, wp, om) + _kernel_D_folded_negative(beta, w, wp, om)
            )

        total += adaptive_quad(folded, 0.0, hi, config) / (2.0 * np.pi)
    return total


def upsilon_dynamical(bath, w, wp, config=DEFAULT_QUAD):
    """Lamb-Stark coefficient Y_dyn(w,w') = (S(w)+S(w'))/2 + i(gamma(w)-gamma(wp))/4."""
    measure = as_measure(bath)
    s = 0.5 * (lamb_shift_S(measure, w, config) + lamb_shift_S(measure, wp, config))
    g = 0.25 * (measure_value(measure, w) - measure_value(measure, wp))
    return s + 1j * g


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


def kossakowski_redfield(baths, config=DEFAULT_QUAD):
    """Long-time Bloch-Redfield spec: K = gamma(w,w',oo), Y_dyn = S(w,w',oo)."""
    beta = as_measure(baths if not isinstance(baths, (list, tuple)) else baths[0]).beta

    def kmat(a, b, w, wp):
        m = pair_measure(baths, a, b)
        if m is None:
            return 0.0
        return 0.5 * (measure_value(m, w) + measure_value(m, wp)) + 1j * (
            lamb_shift_S(m, wp, config) - lamb_shift_S(m, w, config)
        )

    def dyn(a, b, w, wp):
        m = pair_measure(baths, a, b)
        if m is None:
            return 0.0
        return upsilon_dynamical(m, w, wp, config)

    return KossakowskiSpec("redfield", beta, kmat, dyn)


def kossakowski_secular(baths, config=DEFAULT_QUAD):
    """Secular dissipator spec: K = gamma(w) delta_{w,w'}.

    Only the dissipative part is secularised; the dynamical coefficient stays
    the full one, so the steady-state coherences of this generator equal the
    dynamical correction.  (The Davies generator secularises the Hamiltonian
    part as well; that variant lives in the generator builder.)
    """
    beta = as_measure(baths if not isinstance(baths, (list, tuple)) else baths[0]).beta

    def kmat(a, b, w, wp):
        m = pair_measure(baths, a, b)
        if m is None or w != wp:
            return 0.0
        return measure_value(m, w)

    def dyn(a, b, w, wp):
        m = pair_measure(baths, a, b)
        if m is None:
            return 0.0
        return upsilon_dynamical(m, w, wp, config)

    return KossakowskiSpec("secular", beta, kmat, dyn)


def kossakowski_custom(beta, kmat, dyn):
    return KossakowskiSpec("custom", beta, kmat, dyn)


def upsilon_steady_offdiag(spec, bath, w, wp, alpha=0, beta_idx=0, config=DEFAULT_QUAD):
    """Steady-state coherence coefficient Y_st(w, w'), w != w', for a generator
    described by a Kossakowski spec whose diagonal obeys detailed balance."""
    if w == wp:
        raise DomainError("steady-state coherence formula requires w != w'")
    b = spec.beta
    ew, ewp = _exp_factor(b * w), _exp_factor(b * wp)
    if abs(ew - ewp) < 1e-12 * max(ew, ewp):
        raise NearDegenerateError(
            f"e^{{beta w}} - e^{{beta w'}} below resolution for ({w:g}, {wp:g})"
        )
    spec.check_detailed_balance(sorted({abs(w), abs(wp)}))
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
    if w == 0.0:
        raise DomainError("T(w) is defined for w != 0")
    measure = as_measure(bath)
    beta = measure.beta
    total = 0.0
    for loc, wgt in measure.atoms:
        d = loc - w
        if abs(d) <= 1e-12 * max(1.0, abs(loc)):
            raise PoleError(f"frequency {w:g} sits on the atom at {loc:g}")
        total += wgt * float(_E(-d, beta)) / d / np.pi
    if measure.density is not None:
        ebw = _exp_factor(beta * w)
        pole = abs(w)
        hi = measure.support + abs(w) + 1.0
        cap = min(abs(w) + 5.0 * measure.scale, config.pairing_mult * measure.scale, 0.99 * pole)

        def integrand(om):
            om = np.asarray(om)
            return measure.density(om) * (
                _E(w - om, beta) / (om - w) - ebw * _E(-(om + w), beta) / (om + w)
            ) / np.pi

        total += principal_value(integrand, pole, 0.0, hi, config, pairing_cap=cap)
    return total


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
    beta = as_measure(bath).beta
    plus = tls_time_integrated_balance(bath, omega0, config) / (2.0 * beta)
    minus = tls_time_integrated_balance(bath, -omega0, config) / (2.0 * beta)
    return plus, minus


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
    hi = DEFAULT_QUAD.window_mult * max(wc, 1.0 / beta) + omega0

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

    cap = min(omega0 + 5.0 * wc, config.pairing_mult * wc, 0.99 * omega0)
    value = principal_value(integrand, omega0, 0.0, hi, config, pairing_cap=cap)
    return -4.0 * lam**2 * f1 * f2 / omega0 * value


# --- full coefficient tables ---------------------------------------------------


def build_upsilon_table(kind, jumps, baths, equation="redfield", config=DEFAULT_QUAD):
    """Tabulate a correction over all coupling pairs and Bohr-frequency pairs.

    kind: "dynamical", "mean_force" or "steady_state"; for steady_state the
    `equation` selects the generator ("redfield" or "cumulant").  Steady-state
    diagonals follow the gauge Y_st(0,0) = 0; the cumulant diagonal is only
    known for a two-level system with a single coupling.
    """
    if not isinstance(baths, (list, tuple)):
        baths = (baths,) * len(jumps)
    if len(baths) != len(jumps):
        raise ValidationError("need one bath per coupling")
    entries = {}
    spec = kossakowski_redfield(baths, config) if kind == "steady_state" else None

    for a, ja in enumerate(jumps):
        for b, jb in enumerate(jumps):
            measure = pair_measure(baths, a, b)
            if measure is None:
                continue
            for w in ja.frequencies:
                for wp in jb.frequencies:
                    if kind == "dynamical":
                        val = upsilon_dynamical(measure, w, wp, config)
                    elif kind == "mean_force":
                        val = upsilon_mean_force(measure, w, wp, "kernel", config)
                    elif kind == "steady_state":
                        if w == wp:
                            continue
                        val = upsilon_steady_offdiag(spec, measure, w, wp, a, b, config)
                    else:
                        raise ValidationError(f"unknown table kind {kind!r}")
                    entries[(a, b, w, wp)] = complex(val)

    if kind == "steady_state":
        diag_freqs = sorted({w for j in jumps for w in j.frequencies})
        if equation == "cumulant":
            dim = jumps[0].dim
            if dim != 2 or len(jumps) != 1:
                raise NotImplementedError(
                    "cumulant steady-state diagonal is only solved for a "
                    "two-level system with a single coupling"
                )
            w0 = max(abs(w) for w in diag_freqs)
            plus, minus = tls_diagonal_steady(baths[0], w0, "cumulant", config)
            values = {w0: plus, -w0: minus, 0.0: 0.0}
            for a in range(len(jumps)):
                for w in diag_freqs:
                    entries[(a, a, w, w)] = complex(values.get(w, 0.0))
        elif equation == "redfield":
            for a in range(len(jumps)):
                for w in diag_freqs:
                    if w in jumps[a].frequencies:
                        entries[(a, a, w, w)] = 0.0
        else:
            raise ValidationError(f"unknown equation kind {equation!r}")

    return UpsilonTable(kind, entries)
