"""The phi_t helpers of `_quad` against 50-digit mpmath, on both sides of each branch switch.

phi_kernel_prime switches to its series at |x t| = 1e-5 and phi_diff_quotient
to phi_t' at the midpoint at |(x - x0) t| = 1e-6.
"""

import mpmath as mp
import numpy as np
import pytest

from meanforce._quad import phi_diff_quotient, phi_kernel, phi_kernel_prime

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
