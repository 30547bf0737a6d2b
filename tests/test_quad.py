"""The engines of `_quad`: the batched Gauss-Kronrod rule and the phi_t helpers.

`adaptive_quad` is checked against polynomial exactness, against the scalar
QUADPACK route it replaced (kept here as `scalar_quad`, the reference, one
entry at a time), for its per-entry contract (a batch entry equals its
one-entry call, a failure stays with its entry, the returned error estimate
meets the target), and for the number of integrand calls a sweep makes.  The phi_t helpers are
checked against 50-digit mpmath on both sides of each branch switch:
phi_kernel_prime switches to its series at |x t| = 1e-5 and
phi_diff_quotient to phi_t' at the midpoint at |(x - x0) t| = 1e-6.
"""

import dataclasses
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from meanforce import _quad, bath, corrections
from meanforce._quad import (
    DEFAULT_QUAD,
    QuadratureConfig,
    _qk21,
    _raise_failed,
    adaptive_quad,
    phi_diff_quotient,
    phi_kernel,
    phi_kernel_prime,
)
from meanforce.bath import OhmicBath, gamma_spectral, lamb_shift_S, redfield_pair_matrices
from meanforce.corrections import (
    _balance_integrals,
    _mean_force_kernel,
    build_upsilon_table,
    tls_time_integrated_balance,
    upsilon_mean_force,
)
from meanforce.errors import NumericsError
from meanforce.operators import bohr_decompose, spectral_decompose
from meanforce.validation import ReferenceCase, _random_qutrit, qubit_sweep_point, qubit_sweep_rows

EPS = np.finfo(float).eps
TIMES = (0.5, 10.0, 100.0)
# multiples of the switch value: below it, just around it, and well past it
SIDES = (0.5, 0.99, 1.01, 1.5, 1.99, 2.01, 10.0, 1e3)


@mp.workdps(50)
def phi_ref(x, t):
    x, t = mp.mpf(x), mp.mpf(t)
    return mp.mpc(t) if x == 0 else (mp.expj(x * t) - 1) / (1j * x)


@mp.workdps(50)
def phi_prime_ref(x, t):
    x, t = mp.mpf(x), mp.mpf(t)
    if x == 0:
        return 1j * t * t / 2
    e = mp.expj(x * t)
    return t * e / x - (e - 1) / (1j * x * x)


@mp.workdps(50)
def quotient_ref(x, x0, t):
    if x == x0:
        return phi_prime_ref(x, t)
    return (phi_ref(x, t) - phi_ref(x0, t)) / (mp.mpf(x) - mp.mpf(x0))


@mp.workdps(50)
def rel_err(got, ref):
    return float(abs(mp.mpc(complex(got)) - ref) / abs(ref))


def kernel_points(t):
    return [sign * k * 1e-5 / t for k in SIDES for sign in (1, -1)] + [0.0, 0.37, -2.9]


@pytest.mark.parametrize("t", TIMES)
def test_phi_kernel(t):
    assert max(rel_err(phi_kernel(x, t), phi_ref(x, t)) for x in kernel_points(t)) <= 1e-13


@pytest.mark.parametrize("t", TIMES)
def test_phi_kernel_prime(t):
    assert max(rel_err(phi_kernel_prime(x, t), phi_prime_ref(x, t)) for x in kernel_points(t)) <= 1e-10


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("x0", [0.0, 0.7, -1.3, 5.0])
def test_phi_diff_quotient(t, x0):
    # The direct branch divides phi_t(x) - phi_t(x0) by x - x0, so the phase
    # rounding eps |x t| of each phi is amplified by 1/|(x - x0) t|; the
    # midpoint branch below the switch is accurate to 1e-9.
    for k in SIDES:
        for sign in (1, -1):
            x = np.array([x0 + sign * k * 1e-6 / t])
            got = phi_diff_quotient(x, phi_kernel(x, t), x0, t)[0]
            ref = quotient_ref(x[0], x0, t)
            dt = abs(x[0] - x0) * t
            tol = 1e-9 if dt < 1e-6 else max(1e-9, 4 * EPS * max(1.0, abs(x0 * t)) / dt)
            assert rel_err(got, ref) <= tol, (k, sign)


def two_branch_quotient(x, phi_x, x0, t):
    """Both branches over every entry, then np.where: the reference for the branch split."""
    d = x - x0
    small = np.abs(d * t) < 1e-6
    direct = (phi_x - phi_kernel(x0, t)) / np.where(small, 1.0, d)
    return np.where(small, phi_kernel_prime(0.5 * (x + x0), t), direct)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("x0", [0.0, 0.7, -1.3])
def test_phi_diff_quotient_branch_split_is_bitwise(t, x0):
    # x == x0, inside the switch, on either side of it, and far away
    offsets = [0.0] + [s * k / t for k in (1e-9, 0.99e-6, 1e-6, 1.01e-6) for s in (1, -1)]
    x = np.concatenate([x0 + np.array(offsets), np.linspace(-5.0, 5.0, 41)])
    phi_x = phi_kernel(x, t)
    kept = phi_x.copy()
    small = np.abs((x - x0) * t) < 1e-6
    assert 0 < small.sum() < small.size
    got = phi_diff_quotient(x, phi_x, x0, t)
    assert np.array_equal(got, two_branch_quotient(x, phi_x, x0, t))
    assert np.array_equal(phi_x, kept)
    for xs in (x0, x0 + 1e-9 / t, x0 + 2.0):
        xs = np.array(xs)
        got = phi_diff_quotient(xs, phi_kernel(xs, t), x0, t)
        assert got.shape == ()
        assert np.array_equal(got, two_branch_quotient(xs, phi_kernel(xs, t), x0, t))


@pytest.mark.parametrize("t", TIMES)
def test_phi_diff_quotient_broadcasts_x0(t):
    # one call on a nodes x columns block, x0 per column, equals the scalar call per column
    x0 = np.array([0.0, 0.7, -1.3])
    x = x0[None, :] + np.array([0.0, 1e-9, 0.99e-6, 2e-6, 0.5 * t])[:, None] / t
    got = phi_diff_quotient(x, phi_kernel(x, t), x0, t)
    for j in range(x0.size):
        assert np.array_equal(got[:, j], phi_diff_quotient(x[:, j], phi_kernel(x[:, j], t), x0[j], t))


# --- adaptive_quad ------------------------------------------------------------

TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11)
OHMIC = OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0)


def scipy_entry(g, lo, hi, config, edges):
    """One entry on QUADPACK (qags, or qagp with the edges inside (lo, hi) as break points):
    (value, error)."""
    if hi <= lo:
        return 0.0, 0.0
    points = [e for e in edges if lo < e < hi]
    value, err, info, *rest = quad(
        g, lo, hi, epsabs=config.abs_tol, epsrel=config.rel_tol, limit=config.limit,
        full_output=1, points=points or None,
    )
    if rest:
        raise NumericsError(f"scalar quadrature on [{lo:g}, {hi:g}] did not converge ({err:.3e})")
    return value, err


def scalar_quad(f, lo, hi, config=DEFAULT_QUAD, edges=()):
    """The scalar QUADPACK route adaptive_quad replaced: one callback per point, and a
    batch integrated one entry at a time (a failure raises)."""
    lo, hi = np.broadcast_arrays(lo, hi)
    edges = np.broadcast_to(np.asarray(edges, dtype=float), (lo.size, np.shape(edges)[-1]))
    out = np.array([scipy_entry(lambda x, k=k: f(np.array([[x]]), np.array([k]))[0, 0],
                                lo[k], hi[k], config, edges[k]) for k in range(lo.size)])
    return out[:, 0], out[:, 1], {}


def on_route(monkeypatch, engine, compute):
    """compute() with every adaptive_quad call in the package going to `engine`."""
    with monkeypatch.context() as m:
        for module in (_quad, bath, corrections):
            m.setattr(module, "adaptive_quad", engine)
        bath._lamb_shift_cached.cache_clear()
        try:
            return compute()
        finally:
            bath._lamb_shift_cached.cache_clear()


def test_gauss_legendre_literals_are_leggauss():
    # the panel rule's nodes and weights, written out so no run imports numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert np.array_equal(_quad._GL_NODES, nodes) and np.array_equal(_quad._GL_WEIGHTS, weights)


@pytest.mark.parametrize("degree", range(32))
def test_qk21_panel_exact_to_degree_31(degree):
    res, err = _qk21(lambda x: x**degree, np.array([0.0]), np.array([1.0]))
    assert abs(res[0] - 1.0 / (degree + 1)) <= 1e-14
    if degree <= 19:
        # the embedded 10-point Gauss rule is exact too, so only the rounding floor is left
        assert err[0] <= 1e-13


def gamma_mp(w):
    """The Ohmic gamma(W) of OHMIC (beta = 1, cutoff 50) in mpmath."""
    return 2 * mp.pi if w == 0 else -2 * mp.pi * w * mp.exp(-abs(w) / 50) / mp.expm1(-w)


def kernel_mp(w, wp, om):
    """The textbook mean-force kernel D(w, w', W) at beta = 1."""
    if w == wp:
        x = w - om
        if abs(x) < 1e-5:
            return -(mp.mpf(1) / 2 + x / 6 + x**2 / 24 + x**3 / 120)
        return -(mp.expm1(x) - x) / x**2
    return 1 / (wp - om) - (w - wp) * mp.expm1(w - om) / ((w - om) * (wp - om) * mp.expm1(w - wp))


def mp_breaks(r, *poles):
    pts = {-r, r, 0, *poles}
    for x in (0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000):
        pts |= {-x, x}
    return sorted(mp.mpf(p) for p in pts)


@mp.workdps(40)
def lamb_shift_mp(w):
    """S(w) on the domain lamb_shift_S integrates, the pole subtracted analytically."""
    w = mp.mpf(w)
    r = gamma_spectral(OHMIC).support + abs(w) + 1
    gw = gamma_mp(w)
    smooth = mp.quad(lambda om: (gamma_mp(om) - gw) / (w - om), mp_breaks(r, w))
    return float((smooth + gw * mp.log((w + r) / (r - w))) / (2 * mp.pi))


@mp.workdps(40)
def mean_force_mp(w, wp):
    """Y_mf(w, w') over the whole line, unfolded, on the domain upsilon_mean_force covers."""
    w, wp = mp.mpf(w), mp.mpf(wp)
    r = gamma_spectral(OHMIC).support + abs(w) + abs(wp) + 1
    return float(mp.quad(lambda om: kernel_mp(w, wp, om) * gamma_mp(om), mp_breaks(r, w, wp))
                 / (2 * mp.pi))


# the pole grid of S(w): without an interval edge at the density's cusp W = 0, one
# pole of it (w = 4.757) missed rel_tol = 1e-8 by 1.3e-7 at the default tolerances
POLES = tuple(np.concatenate([np.linspace(0.05, 5.0, 62), -np.linspace(0.05, 5.0, 62)]).tolist())


def lamb_shift_qawc(w):
    """S(w) on scipy's QUADPACK, QAWC through the pole, with the domain split at W = 0."""
    measure = gamma_spectral(OHMIC)
    r = measure.support + abs(w) + 1.0
    total = 0.0
    for a, b in ((-r, 0.0), (0.0, r)):
        if a < w < b:
            v = quad(lambda x: float(measure.density(x)), a, b, weight="cauchy", wvar=w,
                     epsabs=1e-13, epsrel=1e-12, limit=1000)[0]
        else:
            v = quad(lambda x: float(measure.density(x)) / (x - w), a, b,
                     epsabs=1e-13, epsrel=1e-12, limit=1000)[0]
        total -= v / (2.0 * np.pi)
    return total


EARLY_STOP = ((-0.770595, 1.252642), (0.416784, -0.344954))

SPECTRAL = {
    "lamb_shift": (lambda c: lamb_shift_S(OHMIC, 1.3, c), lambda: lamb_shift_mp(1.3)),
    "lamb_shift_poles": (lambda c: np.diag(redfield_pair_matrices(OHMIC, POLES, np.inf, c)[1]).real,
                         lambda: np.array([lamb_shift_qawc(w) for w in POLES])),
    "mean_force_offdiag": (lambda c: upsilon_mean_force(OHMIC, 0.4, -1.1, "kernel", c),
                           lambda: mean_force_mp(0.4, -1.1)),
    "mean_force_diag": (lambda c: upsilon_mean_force(OHMIC, 1.0, 1.0, "kernel", c),
                        lambda: mean_force_mp(1.0, 1.0)),
    # without an interval edge at |w'| the kernel integral stopped early here, 72 and 2
    # times rel_tol off at the default tolerances, and this entry failed at (1e-9, 1e-8)
    "mean_force_early_stop": (
        lambda c: np.array([upsilon_mean_force(OHMIC, w, wp, "kernel", c) for w, wp in EARLY_STOP]),
        lambda: np.array([mean_force_mp(w, wp) for w, wp in EARLY_STOP])),
}


@pytest.fixture(scope="module")
def spectral_reference():
    return {name: ref() for name, (_, ref) in SPECTRAL.items()}


@pytest.mark.parametrize("tol", [(1e-6, 1e-5), (1e-9, 1e-8), (1e-12, 1e-11)])
@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_tolerance_honoured(spectral_reference, tol, name):
    got = SPECTRAL[name][0](QuadratureConfig(abs_tol=tol[0], rel_tol=tol[1]))
    ref = spectral_reference[name]
    assert np.all(np.abs(got - ref) <= np.maximum(tol[0], tol[1] * np.abs(ref)))


# a one-entry batch raises its failure the way the package's callers do, through _raise_failed
def test_subdivision_limit_raises():
    with pytest.raises(NumericsError, match="did not converge"):
        _raise_failed(one_entry(lambda x, k: np.sin(1.0 / x), 0, 1e-4, 1.0, QuadratureConfig(limit=10))[2])


@pytest.mark.parametrize("f", [
    lambda x: np.full_like(x, np.nan),
    lambda x: np.where(x > 0.5, np.nan, x),
    lambda x: np.full_like(x, np.inf),
], ids=["all_nan", "part_nan", "inf"])
def test_non_finite_integrand_raises(f):
    with pytest.raises(NumericsError, match=r"not finite on \[0, 1\]"):
        _raise_failed(one_entry(lambda x, k: f(x), 0, 0.0, 1.0)[2])


def test_sweep_is_vectorised(monkeypatch):
    # the scalar route made 68,775 callbacks of one point each on this sweep, and one
    # adaptive_quad call per table entry made 1765 integrand calls; one batched call
    # per integral (S, Y_mf, T) over all 20 points makes one per bisection round
    count = {"calls": 0, "nodes": 0}

    def counting(f, lo, hi, config=DEFAULT_QUAD, edges=()):
        def g(x, *k):
            count["calls"] += 1
            count["nodes"] += np.size(x)
            return f(x, *k)
        return adaptive_quad(g, lo, hi, config, edges)

    on_route(monkeypatch, counting, lambda: qubit_sweep_rows(ReferenceCase()))
    assert count["calls"] <= 100
    assert count["nodes"] <= 1.5 * 68_775


def both_routes(monkeypatch, compute):
    return (on_route(monkeypatch, adaptive_quad, compute),
            on_route(monkeypatch, scalar_quad, compute))


@pytest.mark.parametrize("bw0", [0.1, 1.2, 4.7])
def test_sweep_point_matches_scalar_route(monkeypatch, bw0):
    (new, new_failed), (old, old_failed) = both_routes(
        monkeypatch, lambda: qubit_sweep_point(OHMIC, [bw0], 1.0, TIGHT))
    assert new_failed == old_failed == [None]
    # the dynamical diag_diff is S(w0) - S(-w0): at bw0 = 0.1 it cancels to 1% of
    # |S| = 50, and the scalar route's own error of 6.5e-11 on each S(+-0.1)
    # (against mpmath; 9e-13 on this engine) is relative to S, not to the difference
    s = on_route(monkeypatch, adaptive_quad, lambda: lamb_shift_S(OHMIC, bw0, TIGHT))
    scale = max(abs(s), np.max(np.abs(old)))
    assert np.max(np.abs(new - old)) <= 1e-10 * scale


def test_sweep_at_wide_cutoff_meets_its_tolerance():
    # at beta*w_c = 1e8 the first intervals must still resolve the density's thermal
    # scale: first partitions sized by the cutoff (pairing windows of up to 10 w_c, the
    # kernel cut at |w'| only) let qk21 stop on intervals far wider than 1/beta, and the
    # default sweep was 0.72 off in its mf, dyn and st cells, with no warning
    case = ReferenceCase(cutoff=1e8)
    tight = dataclasses.replace(case, config=QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ref = qubit_sweep_rows(case), qubit_sweep_rows(tight)
    assert all(abs(got[key] - v) <= 1e-7 * abs(v) for key, v in ref.items())


def test_mean_force_table_matches_scalar_route(monkeypatch):
    h0, s = _random_qutrit(3)
    jumps = [bohr_decompose(spectral_decompose(h0), s)]
    new, old = both_routes(
        monkeypatch, lambda: build_upsilon_table("mean_force", jumps, OHMIC, config=TIGHT).entries)
    scale = max(abs(v) for v in old.values())
    assert max(abs(new[k] - old[k]) for k in old) <= 1e-10 * scale


# --- the batched contract ---------------------------------------------------------

RATES = np.array([0.5, 1.0, 3.0, 10.0, 40.0])


def damped(x, k):
    """Entry k: e^{-x} cos(rate_k x), a different rate per entry."""
    return np.exp(-x) * np.cos(RATES[k, None] * x)


def one_entry(f, k, lo, hi, config=DEFAULT_QUAD):
    """Entry k of a batched integrand as a one-entry call."""
    value, error, failed = adaptive_quad(lambda x, _: f(x, np.full(len(x), k)),
                                         np.array([lo]), np.array([hi]), config)
    return value[0], error[0], failed


def rel_gap(a, b):
    return np.max(np.abs(np.asarray(a) - b) / np.abs(b))


def test_batch_entries_equal_one_entry_calls():
    lo, hi = np.zeros(RATES.size), np.linspace(1.0, 9.0, RATES.size)
    value, error, failed = adaptive_quad(damped, lo, hi)
    assert failed == {}
    single = [one_entry(damped, k, lo[k], hi[k]) for k in range(RATES.size)]
    assert rel_gap(value, np.array([v for v, _, _ in single])) <= 1e-15
    assert np.array_equal(error, [e for _, e, _ in single])


def fresh_lamb_shift(w):
    """S(w) computed as a one-entry batch: the table of computed S(w) is emptied first."""
    bath._lamb_shift_cached.cache_clear()
    return lamb_shift_S(OHMIC, w)


def test_spectral_batches_equal_one_entry_calls():
    measure = gamma_spectral(OHMIC)
    ws = [0.1, -0.7, 1.3, 2.9, -4.4]
    bath._lamb_shift_cached.cache_clear()
    s = np.diag(redfield_pair_matrices(OHMIC, ws, np.inf)[1]).real
    assert rel_gap(s, np.array([fresh_lamb_shift(w) for w in ws])) <= 1e-15
    w, wp = np.repeat(ws, len(ws)), np.tile(ws, len(ws))
    mf, failed = _mean_force_kernel(measure, w, wp, DEFAULT_QUAD)
    assert failed == {}
    assert rel_gap(mf, np.array([upsilon_mean_force(OHMIC, a, b) for a, b in zip(w, wp)])) <= 1e-15
    t, failed = _balance_integrals(measure, ws, DEFAULT_QUAD)
    assert failed == {}
    assert rel_gap(t, np.array([tls_time_integrated_balance(OHMIC, a) for a in ws])) <= 1e-15


@pytest.mark.parametrize("bad, match", [
    (lambda x: np.sin(1.0 / x), "did not converge"),
    (lambda x: np.where(x > 0.5, np.nan, x), r"not finite on \[0, 1\]"),
], ids=["limit", "non_finite"])
def test_failure_stays_with_its_entry(bad, match):
    config = QuadratureConfig(limit=10)
    lo, hi = np.array([0.0, 1e-4 if match == "did not converge" else 0.0, 0.0]), np.array([2.0, 1.0, 5.0])

    def f(x, k):
        return np.where((k == 1)[:, None], bad(x), damped(x, k))

    value, error, failed = adaptive_quad(f, lo, hi, config)
    assert list(failed) == [1] and re.search(match, failed[1])
    assert np.isnan(value[1])
    for k in (0, 2):
        assert value[k] == one_entry(damped, k, lo[k], hi[k], config)[0]


@pytest.mark.parametrize("tol", [(1e-6, 1e-5), (1e-9, 1e-8), (1e-12, 1e-11)])
def test_error_estimate_within_target(tol):
    # every converged entry returns its summed error estimate, at most its own target
    config = QuadratureConfig(abs_tol=tol[0], rel_tol=tol[1])
    lo, hi = np.zeros(RATES.size), np.linspace(1.0, 9.0, RATES.size)
    value, error, failed = adaptive_quad(damped, lo, hi, config)
    assert failed == {} and np.all(error > 0)
    assert np.all(error <= np.maximum(tol[0], tol[1] * np.abs(value)))
