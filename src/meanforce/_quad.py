"""Quadrature engines: adaptive integration, principal values, oscillatory panels.

Three kinds of integrals recur throughout the package:

* smooth integrals of spectral densities (adaptive Gauss-Kronrod via QUADPACK),
* principal-value integrals through a simple pole, done by pairing the
  integrand symmetrically around the pole so the 1/u singularity cancels
  analytically before any quadrature sees it,
* Fourier-type integrals with a bounded oscillation rate, done on a panel
  grid of fixed-order Gauss-Legendre rules with at most one oscillation
  period per panel (vectorised, and positive weights so Gram-structured
  integrands stay positive semi-definite).
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from .errors import NumericsError, ValidationError

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)
_MAX_PANEL_NODES = 4_000_000


@dataclass(frozen=True)
class QuadratureConfig:
    """Shared quadrature settings.

    abs_tol / rel_tol   target accuracies handed to the adaptive routine
    limit               max number of adaptive subdivisions
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    limit: int = 400

    def __post_init__(self):
        if not all(np.isfinite(x) and x > 0 for x in (self.abs_tol, self.rel_tol)):
            raise ValidationError("quadrature tolerances must be positive and finite")
        if self.limit < 10:
            raise ValidationError("subdivision limit must be at least 10")


DEFAULT_QUAD = QuadratureConfig()


def adaptive_quad(f, lo, hi, config=DEFAULT_QUAD):
    """Adaptive Gauss-Kronrod integral of a real integrand on [lo, hi]."""
    if hi <= lo:
        return 0.0
    value, err, info, *rest = quad(
        f, lo, hi,
        epsabs=config.abs_tol, epsrel=config.rel_tol,
        limit=config.limit, full_output=1,
    )
    if rest:
        raise NumericsError(
            f"quadrature on [{lo:g}, {hi:g}] did not converge: "
            f"achieved abs error {err:.3e} (target {config.abs_tol:.1e})"
        )
    return value


def principal_value(f, pole, lo, hi, scale, config=DEFAULT_QUAD):
    """PV integral of f over [lo, hi] where f has a simple pole at `pole`.

    The window [pole-W, pole+W] is integrated as
    int_0^W (f(pole+u) + f(pole-u)) du, which is finite without knowing the
    residue; the remaining pole-free pieces go through adaptive quadrature.
    The half-width W = min(|pole| + 5 scale, 10 scale) follows the
    integrand's frequency `scale` and stays inside 99% of either side of
    the domain.
    """
    if not lo < pole < hi:
        raise ValidationError("pole must lie strictly inside the integration domain")
    w = min(0.99 * (pole - lo), 0.99 * (hi - pole), abs(pole) + 5.0 * scale, 10.0 * scale)

    paired = adaptive_quad(lambda u: f(pole + u) + f(pole - u), 0.0, w, config)
    left = adaptive_quad(f, lo, pole - w, config)
    right = adaptive_quad(f, pole + w, hi, config)
    return paired + left + right


def panel_nodes(lo, hi, osc_freq, min_panels=8, structure_scale=None):
    """Gauss-Legendre nodes/weights resolving oscillation rate `osc_freq` on [lo, hi].

    One full period e^{i*osc_freq*x} per panel keeps the per-panel GL error at
    machine level; `structure_scale` additionally bounds the panel width by the
    intrinsic variation scale of the non-oscillatory factor.  Weights are
    strictly positive.
    """
    if hi <= lo:
        raise ValidationError("empty panel interval")
    span = hi - lo
    n_panels = min_panels
    if osc_freq > 0:
        n_panels = max(min_panels, int(np.ceil(span * osc_freq / (2.0 * np.pi))))
    if structure_scale is not None and structure_scale > 0:
        n_panels = max(n_panels, int(np.ceil(span / structure_scale)))
    if n_panels * _GL_ORDER > _MAX_PANEL_NODES:
        raise NumericsError(
            f"oscillatory grid needs {n_panels * _GL_ORDER} nodes "
            f"(> {_MAX_PANEL_NODES}); reduce t or the integration window"
        )
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def oscillatory_quad(f, lo, hi, osc_freq, min_panels=8, structure_scale=None):
    """Integral of a (possibly complex) vectorised integrand with bounded oscillation."""
    nodes, weights = panel_nodes(lo, hi, osc_freq, min_panels, structure_scale)
    return np.sum(weights * f(nodes))


def phi_kernel(x, t):
    """phi_t(x) = int_0^t e^{i x s} ds = (e^{i x t} - 1)/(i x), stable at x = 0.

    Uses phi_t(x) = t e^{i x t / 2} sinc(x t / 2), exact for all x including 0.
    """
    x = np.asarray(x, dtype=float)
    return t * np.exp(0.5j * x * t) * np.sinc(x * t / (2.0 * np.pi))


def phi_kernel_prime(x, t):
    """d/dx phi_t(x) = int_0^t i s e^{i x s} ds."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x * t) < 1e-5
    xs = np.where(small, 1.0, x)
    exact = (t * np.exp(1j * xs * t) - phi_kernel(xs, t)) / xs
    # series: i t^2 sum_n (n+1) (i x t)^n / (n+2)!
    z = 1j * x * t
    series = 1j * t * t * (1.0 / 2 + z * (2.0 / 6 + z * (3.0 / 24 + z * (4.0 / 120 + z * 5.0 / 720))))
    return np.where(small, series, exact)


def phi_diff_quotient(x, phi_x, x0, t):
    """(phi_t(x) - phi_t(x0)) / (x - x0), stable as x -> x0; phi_x = phi_t(x) from the caller's table."""
    d = x - x0
    small = np.abs(d * t) < 1e-6
    dsafe = np.where(small, 1.0, d)
    direct = (phi_x - phi_kernel(x0, t)) / dsafe
    mid = phi_kernel_prime(0.5 * (x + x0), t)
    return np.where(small, mid, direct)
