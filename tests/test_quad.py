"""The engines of `_quad`: the vectorised Gauss-Kronrod rule and the phi_t helpers.

`adaptive_quad` is checked against polynomial exactness, against the scalar
QUADPACK route it replaced (kept here as `scalar_quad`, the reference), and
for the number of integrand callbacks a sweep makes.  The phi_t helpers are
checked against 50-digit mpmath on both sides of each branch switch:
phi_kernel_prime switches to its series at |x t| = 1e-5 and
phi_diff_quotient to phi_t' at the midpoint at |(x - x0) t| = 1e-6.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from meanforce import _quad, bath, corrections
from meanforce._quad import (
    DEFAULT_QUAD,
    QuadratureConfig,
    _qk21,
    adaptive_quad,
    phi_diff_quotient,
    phi_kernel,
    phi_kernel_prime,
)
from meanforce.bath import OhmicBath, gamma_spectral, lamb_shift_S
from meanforce.corrections import build_upsilon_table, upsilon_mean_force
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


# --- adaptive_quad ------------------------------------------------------------

TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11)
OHMIC = OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0)


def scalar_quad(f, lo, hi, config=DEFAULT_QUAD):
    """The scalar QUADPACK route adaptive_quad replaced: one callback per point."""
    if hi <= lo:
        return 0.0
    value, err, info, *rest = quad(
        f, lo, hi,
        epsabs=config.abs_tol, epsrel=config.rel_tol, limit=config.limit, full_output=1,
    )
    if rest:
        raise NumericsError(f"scalar quadrature on [{lo:g}, {hi:g}] did not converge ({err:.3e})")
    return value


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


SPECTRAL = {
    "lamb_shift": (lambda c: lamb_shift_S(OHMIC, 1.3, c), lambda: lamb_shift_mp(1.3)),
    "mean_force_offdiag": (lambda c: upsilon_mean_force(OHMIC, 0.4, -1.1, "kernel", c),
                           lambda: mean_force_mp(0.4, -1.1)),
    "mean_force_diag": (lambda c: upsilon_mean_force(OHMIC, 1.0, 1.0, "kernel", c),
                        lambda: mean_force_mp(1.0, 1.0)),
}


@pytest.fixture(scope="module")
def spectral_reference():
    return {name: ref() for name, (_, ref) in SPECTRAL.items()}


@pytest.mark.parametrize("tol", [(1e-6, 1e-5), (1e-9, 1e-8), (1e-12, 1e-11)])
@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_tolerance_honoured(spectral_reference, tol, name):
    got = SPECTRAL[name][0](QuadratureConfig(abs_tol=tol[0], rel_tol=tol[1]))
    ref = spectral_reference[name]
    assert abs(got - ref) <= max(tol[0], tol[1] * abs(ref))


def test_subdivision_limit_raises():
    with pytest.raises(NumericsError, match="did not converge"):
        adaptive_quad(lambda x: np.sin(1.0 / x), 1e-4, 1.0, QuadratureConfig(limit=10))


@pytest.mark.parametrize("f", [
    lambda x: np.full_like(x, np.nan),
    lambda x: np.where(x > 0.5, np.nan, x),
    lambda x: np.full_like(x, np.inf),
], ids=["all_nan", "part_nan", "inf"])
def test_non_finite_integrand_raises(f):
    with pytest.raises(NumericsError, match=r"not finite on \[0, 1\]"):
        adaptive_quad(f, 0.0, 1.0)


def test_sweep_is_vectorised(monkeypatch):
    # the scalar route made 68,775 callbacks of one point each on this sweep
    count = {"calls": 0, "nodes": 0}

    def counting(f, lo, hi, config=DEFAULT_QUAD):
        def g(x):
            count["calls"] += 1
            count["nodes"] += np.size(x)
            return f(x)
        return adaptive_quad(g, lo, hi, config)

    on_route(monkeypatch, counting, lambda: qubit_sweep_rows(ReferenceCase()))
    assert count["calls"] <= 3000
    assert count["nodes"] <= 1.5 * 68_775


def both_routes(monkeypatch, compute):
    return (on_route(monkeypatch, adaptive_quad, compute),
            on_route(monkeypatch, scalar_quad, compute))


@pytest.mark.parametrize("bw0", [0.1, 1.2, 4.7])
def test_sweep_point_matches_scalar_route(monkeypatch, bw0):
    new, old = both_routes(monkeypatch, lambda: qubit_sweep_point(OHMIC, bw0, 1.0, TIGHT))
    # the dynamical diag_diff is S(w0) - S(-w0): at bw0 = 0.1 it cancels to 1% of
    # |S| = 50, and the scalar route's own error of 6.5e-11 on each S(+-0.1)
    # (against mpmath; 9e-13 on this engine) is relative to S, not to the difference
    s = on_route(monkeypatch, adaptive_quad, lambda: lamb_shift_S(OHMIC, bw0, TIGHT))
    scale = max(abs(s), *(abs(v) for v in old.values()))
    assert max(abs(new[k] - old[k]) for k in old) <= 1e-10 * scale


def test_mean_force_table_matches_scalar_route(monkeypatch):
    h0, s = _random_qutrit(3)
    jumps = [bohr_decompose(spectral_decompose(h0), s)]
    new, old = both_routes(
        monkeypatch, lambda: build_upsilon_table("mean_force", jumps, OHMIC, config=TIGHT).entries)
    scale = max(abs(v) for v in old.values())
    assert max(abs(new[k] - old[k]) for k in old) <= 1e-10 * scale
