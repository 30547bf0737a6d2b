"""Quadrature engines: adaptive integration, principal values, oscillatory panels.

Three kinds of integrals recur throughout the package:

* smooth integrals of spectral densities: a globally adaptive 21-point
  Gauss-Kronrod rule (QUADPACK's qk21 nodes, weights and error estimate,
  Piessens et al. 1983) over a batch of entries, so each bisection round is
  one call of the integrand on the nodes of every interval any entry
  bisects, while every entry keeps its own target, interval set, `limit`
  and failure; a whole correction table or qubit sweep is one call, and
  every such integral starts from the edges of one `ladder`,
* principal-value integrals through a simple pole, done by pairing the
  integrand symmetrically around the pole so the 1/u singularity cancels
  analytically before any quadrature sees it; the three pieces of every
  pole of a batch are entries of one adaptive call,
* Fourier-type integrals with a bounded oscillation rate, sampled by
  `bath._discretize` on the panel rule of `panel_chunks`: fixed-order
  Gauss-Legendre panels, at most one oscillation period each, with positive
  weights so Gram-structured integrands stay positive semi-definite, handed
  out a fixed number of panels at a time.
  `_rotations` walks those nodes in blocks, once per frequency list and
  time: phi_t(w_i - W_k) = e^{ia_i} s_ik e^{-ib_k} with a_i = t w_i / 2,
  b_k = t W_k / 2 and a real s for every node, so xi, Xi and Gamma(w, t)
  are sums of real products of s and u = 1/(w - W), with `phi_kernel`'s
  own bits on the few entries |w - W| t < 1 and `phi_diff_quotient` for
  the difference quotients near the switch.  `_pairwise_sum` adds the
  block sums pairwise.

A batched integrand takes the (r, 21) node array of r intervals and their
entry indices and returns an array of the nodes' shape.
"""

import sys
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError

# 16-point Gauss-Legendre rule of the panels: the positive nodes, ascending,
# and their weights (repr-exact copies of numpy's leggauss(16), which is
# symmetric to the bit)
_XGL = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_WGL = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_NODES = np.concatenate([-_XGL[::-1], _XGL])
_GL_WEIGHTS = np.concatenate([_WGL[::-1], _WGL])
_GL_ORDER = _GL_NODES.size
_MIN_PANELS = 8
_MAX_PANEL_NODES = 4_000_000
_PANEL_CHUNK = 512  # panels per chunk of `panel_chunks`
_PHI_SWITCH = 1e-6  # |(x - x0) t| below which phi_diff_quotient takes the midpoint phi_t'

# QUADPACK dqk21: the 21-point Kronrod abscissae on [0, 1) (odd entries are
# the 10-point Gauss nodes, the last is the centre), their Kronrod weights,
# and the Gauss weights of the odd entries.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525370822, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes on [-1, 1] and their Kronrod and Gauss weights (Gauss weight 0 off its nodes)
_KR_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KR_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _WG
_G_WEIGHTS[11:20:2] = _WG[::-1]
_EPS = np.finfo(float).eps
_LADDER_RATIO = 4.0  # ratio of consecutive starting edges of `ladder`
_QK21_BLOCK = 512  # intervals per integrand call


@dataclass(frozen=True)
class QuadratureConfig:
    """Shared quadrature settings.

    abs_tol / rel_tol   target accuracies handed to the adaptive routine, in (0, max float]
    limit               max number of subintervals the adaptive routine may use
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    limit: int = 400

    def __post_init__(self):
        if not all(0 < x <= sys.float_info.max for x in (self.abs_tol, self.rel_tol)):
            raise ValidationError("quadrature tolerances must be positive and finite")
        if self.limit < 10:
            raise ValidationError("subdivision limit must be at least 10")


DEFAULT_QUAD = QuadratureConfig()


def _qk21(f, a, b):
    """QUADPACK qk21 on each interval [a_i, b_i]: (integrals, error estimates).

    The integrand is called once, on the (n, 21) array of every interval's
    nodes.  An interval with a value that is not finite gets a nan integral.
    Each row is summed on its own, so an interval's bits do not depend on the
    other rows of the call.
    """
    with np.errstate(all="ignore"):  # a value that is not finite fails its interval below
        centre = 0.5 * (a + b)
        half = 0.5 * (b - a)
        fv = np.asarray(f(centre[:, None] + half[:, None] * _KR_NODES), dtype=float)
        resk = (fv * _KR_WEIGHTS).sum(axis=1)
        resg = (fv * _G_WEIGHTS).sum(axis=1)
        resabs = (np.abs(fv) * _KR_WEIGHTS).sum(axis=1) * half
        resasc = (np.abs(fv - 0.5 * resk[:, None]) * _KR_WEIGHTS).sum(axis=1) * half
        err = np.abs(resk - resg) * half
        err = np.where((resasc != 0) & (err != 0),
                       resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        res = np.where(np.isfinite(fv).all(axis=1), resk * half, np.nan)
        return res, np.maximum(50.0 * _EPS * resabs, err)


def _raise_failed(failed):
    """Raise the NumericsError of the lowest failed entry of a batch, if any."""
    if failed:
        raise NumericsError(failed[min(failed)])


def ladder(scale, reach):
    """The starting edges of every spectral integral: 0 and +-scale r^j (j >= 0) up to +-max(reach).

    A density varies on its structure scale near W = 0 (thermal factor, cutoff, |W| cusp)
    and ever more slowly further out, as do its kernels: a geometric ladder of ratio
    r = _LADDER_RATIO resolves both ends in a few qk21 intervals, whatever the entry."""
    steps = scale * _LADDER_RATIO ** np.arange(np.log(np.max(reach) / scale) // np.log(_LADDER_RATIO) + 1)
    return np.concatenate([-steps[::-1], [0.0], steps])


def adaptive_quad(f, lo, hi, config=DEFAULT_QUAD, edges=()):
    """Globally adaptive 21-point Gauss-Kronrod integrals of m real integrands at once.

    `lo` and `hi` hold one entry each; f(x, k) takes the (r, 21) nodes of r intervals
    and their entry indices k and returns an array of x's shape.  Entry k starts from
    [lo_k, hi_k] cut at those of `edges` (one ascending list for all entries, or one
    ascending row per entry) that lie strictly inside it, and `config.limit` counts
    these first intervals too.  Each round calls f on the 21 qk21 nodes of every
    interval that any entry bisects, _QK21_BLOCK intervals at a time.  Entry k stops
    once its summed error estimate is at most max(abs_tol, rel_tol |I_k|); until then
    every one of its intervals whose error exceeds that target divided by its interval
    count is bisected, which always includes its worst one.  An entry fails alone when
    it would need more than `config.limit` intervals or meets a value that is not
    finite.  Returns (values, errors, failed): the integrals, the summed error
    estimates and {k: message} of the failed entries, whose values are nan.  An entry
    with hi <= lo is 0."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    m, hi = lo.size, np.maximum(lo, hi)  # an entry with hi <= lo has no interval
    pts = np.concatenate([lo[:, None], np.clip(edges, lo[:, None], hi[:, None]), hi[:, None]], axis=1)
    gap = pts[:, 1:] > pts[:, :-1]  # ascending rows: the cut points need no sort
    k, a, b = np.repeat(np.arange(m), gap.sum(1)), pts[:, :-1][gap], pts[:, 1:][gap]
    value, error, dead, failed = np.zeros(m), np.zeros(m), np.zeros(m, dtype=bool), {}

    def rule(k, a, b):  # qk21, calling f on the nodes of at most _QK21_BLOCK intervals at once
        res, err = np.empty((2, k.size))
        for s in range(0, k.size, _QK21_BLOCK):
            i = slice(s, s + _QK21_BLOCK)
            res[i], err[i] = _qk21(lambda x: f(x, k[i]), a[i], b[i])
        return res, err

    res, err = rule(k, a, b)
    while k.size:
        for row in np.flatnonzero(~np.isfinite(res))[::-1]:  # an entry's first bad interval names it
            j = int(k[row])
            failed[j] = f"integrand is not finite on [{a[row]:.17g}, {b[row]:.17g}]"
            dead[j], error[j] = True, np.inf
        n = np.bincount(k, minlength=m)
        total, summed = np.bincount(k, res, m), np.bincount(k, err, m)
        target = np.maximum(config.abs_tol, config.rel_tol * np.abs(total))
        done = (n > 0) & ~dead & (summed <= target)
        value[done], error[done] = total[done], summed[done]
        split = err > (target / np.maximum(n, 1))[k]
        over = (n + np.bincount(k[split], minlength=m) > config.limit) & (n > 0) & ~dead & ~done
        for j in np.flatnonzero(over).tolist():
            failed[j] = (f"quadrature on [{lo[j]:g}, {hi[j]:g}] did not converge: "
                         f"achieved abs error {summed[j]:.3e} (target {config.abs_tol:.1e})")
            error[j] = summed[j]
        dead |= over
        stay = ~(done | dead)[k]
        if not stay.any():
            break
        keep, cut = stay & ~split, stay & split  # the live intervals kept whole, and the halved
        mid = 0.5 * (a[cut] + b[cut])
        new = np.tile(k[cut], 2), np.concatenate([a[cut], mid]), np.concatenate([mid, b[cut]])
        k, a, b, res, err = (np.concatenate([x[keep], y])
                             for x, y in zip((k, a, b, res, err), (*new, *rule(*new))))
    value[dead] = np.nan
    return value, error, failed


def principal_value(f, pole, lo, hi, config=DEFAULT_QUAD, edges=()):
    """PV integrals of f over [lo_k, hi_k] through a simple pole at pole_k, for m poles at once.

    The widest symmetric window [pole-W, pole+W], W = 0.99 min(pole-lo, hi-pole), is
    integrated as int_0^W (f(pole+u) + f(pole-u)) du, which is finite without knowing
    the residue; the pole-free pieces [lo, pole-W] and [pole+W, hi] are plain
    integrals.  The three pieces of every pole are entries of one `adaptive_quad`
    call, each with its own target, and a pole fails with the message of its first
    failed piece.  The plain pieces start from `edges` as `adaptive_quad` does, the
    paired one from their images |edge - pole|, less any within 1e-12 |pole| of it.

    f(x, k) takes nodes and pole indices; returns (values, errors, failed) as
    `adaptive_quad` does.
    """
    pole, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (pole, lo, hi)))
    if not np.all((lo < pole) & (pole < hi)):
        raise ValidationError("pole must lie strictly inside the integration domain")
    m, w = pole.size, 0.99 * np.minimum(pole - lo, hi - pole)

    def pieces(x, e):
        # entries [0, m) are the paired window, [m, 2m) the left and [2m, 3m) the right piece
        k, paired = e % m, e < m
        u, kp = x[paired], k[paired]
        centre = pole[kp, None]
        v = np.asarray(f(np.concatenate([centre + u, centre - u, x[~paired]]),
                         np.concatenate([kp, kp, k[~paired]])), dtype=float)
        out = np.empty(x.shape)
        out[paired] = v[:kp.size] + v[kp.size:2 * kp.size]
        out[~paired] = v[2 * kp.size:]
        return out

    image = np.abs(np.subtract.outer(pole, edges))
    image[image <= 1e-12 * np.abs(pole)[:, None]] = 0.0  # pole +- u would round to the pole
    image = np.array([sorted(row) for row in image.tolist()])
    v, err, failed = adaptive_quad(pieces, np.concatenate([np.zeros(m), lo, pole + w]),
                                   np.concatenate([w, pole - w, hi]), config,
                                   np.concatenate([image, np.broadcast_to(edges, (2 * m, image.shape[1]))]))
    by_pole = {j % m: failed[j] for j in sorted(failed, reverse=True)}  # the first of paired, left, right
    return v.reshape(3, m).sum(0), err.reshape(3, m).sum(0), by_pole


def panel_chunks(lo, hi, osc_freq, structure_scale):
    """The Gauss-Legendre panel rule resolving oscillation rate `osc_freq` on [lo, hi].

    One full period e^{i*osc_freq*x} per panel keeps the per-panel GL error at
    machine level; a positive `structure_scale` additionally bounds the panel
    width by the intrinsic variation scale of the non-oscillatory factor.  The
    panel count, and with it the node cap, is fixed on the call; the returned
    iterator yields the `panel_nodes` of _PANEL_CHUNK panels at a time, in
    order, so no caller need hold the whole rule.  Weights are strictly positive.
    """
    if hi <= lo:
        raise ValidationError("empty panel interval")
    span = hi - lo
    # the panel counts each bound asks for, as floats: one that overflows still compares
    by_rate = np.ceil(span * osc_freq / (2.0 * np.pi)) if osc_freq > 0 else 0.0
    by_scale = np.ceil(span / structure_scale) if structure_scale > 0 else 0.0
    n_panels = max(_MIN_PANELS, by_rate, by_scale)
    if n_panels * _GL_ORDER > _MAX_PANEL_NODES:
        cause = ("the oscillation rate t" if by_rate >= by_scale
                 else "the structure scale min(cutoff, 1/beta)")
        raise NumericsError(f"oscillatory grid needs {n_panels * _GL_ORDER:.3g} nodes "
                            f"(> {_MAX_PANEL_NODES}) on a window {span:.3g} wide, set by {cause}")
    n_panels = int(n_panels)
    edges = np.linspace(lo, hi, n_panels + 1)
    return (panel_nodes(edges[s:s + _PANEL_CHUNK + 1]) for s in range(0, n_panels, _PANEL_CHUNK))


def panel_nodes(edges):
    """16-point Gauss-Legendre nodes and weights on the panels between consecutive `edges`.

    Every node and weight is elementwise in its own panel's edges, so a chunk
    of panels gets the bits it has in the whole rule.
    """
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def phi_kernel(x, t):
    """phi_t(x) = int_0^t e^{i x s} ds = (e^{i x t} - 1)/(i x), stable at x = 0.

    Uses phi_t(x) = t (sin h / h) (cos h + i sin h) with h = x t / 2, so one
    sin and one cos per entry; sin h / h is 1 at h = 0.
    """
    h = 0.5 * t * np.asarray(x, dtype=float)
    sin = np.sin(h)
    q = t * np.divide(sin, h, out=np.ones_like(h), where=h != 0)
    out = np.empty(h.shape, dtype=complex)
    out.real = q * np.cos(h)
    out.imag = q * sin
    return out[()]


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


def _diff_quotient(num, d, scale, switch, slope):
    """num / d for num = f(x) - f(x0), d = x - x0; where |d scale| < switch it is
    slope(small), f' at the midpoints of the entries the mask `small` selects,
    evaluated only when some entry takes that branch."""
    small = np.abs(d * scale) < switch
    q = np.asarray(num / np.where(small, 1.0, d))
    if small.any():
        q[small] = slope(small)
    return q


# E(x) = (e^{beta x} - 1)/x, E(0) = beta, the thermal kernel of the mean force and of
# T(w), with (1 - e^{-beta u})/u = E(-u), entire up to the removable point; difference
# quotients of E switch to a midpoint-derivative branch once the increment is below
# 1e-5/beta, a crossover validated against extended-precision evaluation in the tests.


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


def phi_diff_quotient(x, phi_x, x0, t):
    """(phi_t(x) - phi_t(x0)) / (x - x0), stable as x -> x0; phi_x = phi_t(x) from the caller's table.

    x0 is a scalar or an array that broadcasts against x.  Where
    |(x - x0) t| < _PHI_SWITCH the quotient is phi_t' at the midpoint.
    """
    x = np.asarray(x, dtype=float)
    return _diff_quotient(phi_x - phi_kernel(x0, t), x - x0, t, _PHI_SWITCH,
                          lambda small: phi_kernel_prime(0.5 * (x + x0)[small], t))


def _rotations(fa, nodes, c, n_atoms, t, block):
    """Walk a discretisation in blocks: yield (W, c, s, u, trig, near) per block,
    where phi_t(w_i - W_k) = e^{ia_i} s_ik e^{-ib_k} with a real s.

    The nodes W_k and weights c_k are n_atoms atoms, then panel nodes in
    ascending order, as `bath._discretize` gives them; the atoms and then the
    panel nodes are walked in blocks of at most `block`, in order.  With
    a_i = t w_i / 2, b_k = t W_k / 2, x_ik = w_i - W_k and h = x t / 2,
    s = 2 sin(a - b) / x.  u = 1/x and s are n x (block), contiguous along the
    nodes, and trig = [cos b; sin b].  s is 2 (sin a cos b - cos a sin b) u,
    and t sin h / h, phi_kernel's own modulus, where |h| < 1/2, since the
    expanded sine cancels there.  near is None when no frequency lies within
    about 1/t of a block of panel nodes, else (cols, x, small, phi): the
    nodes that hold an entry |h| < 1/2, x and that mask on them, and
    phi_kernel(x) there, bit for bit.  Elsewhere |u| <= t, and the implied
    phi may differ from phi_kernel by the rounding of a and b, about
    eps t max(|w_i|, |W_k|) |phi|.

    u and s are written into two buffers, valid until the next block: a
    fresh n x (block) array per block costs more than the arithmetic.
    """
    half, reach = 0.5 * t, 1.000001 / t  # reach: 1/t widened past the rounding of |h| < 1/2
    rows = np.stack([2.0 * np.sin(half * fa), -2.0 * np.cos(half * fa)], 1)
    edges = np.concatenate([[-np.inf], np.sort(fa), [np.inf]])
    ends, column = edges.tolist(), fa[:, None]
    buffers = np.empty((2, fa.size * min(block, nodes.size)))  # u and s, reused from block to block
    for lo, hi in ((0, n_atoms), (n_atoms, nodes.size)):
        for start in range(lo, hi, block):
            w = nodes[start:min(start + block, hi)]
            near = start < n_atoms or bisect_left(ends, w[0] - reach) < bisect_right(ends, w[-1] + reach)
            b, trig = half * w, np.empty((2, w.size))
            np.cos(b, out=trig[0])
            np.sin(b, out=trig[1])
            u, s = buffers[:, :fa.size * w.size].reshape(2, fa.size, w.size)
            with np.errstate(divide="ignore", invalid="ignore") if near else nullcontext():  # x = 0 is near
                np.divide(1.0, np.subtract(column, w, out=u), out=u)
                np.matmul(rows, trig, out=s)
                s *= u
            if near:
                i = np.searchsorted(edges, w)  # |h| is least at a frequency next to W_k: rounding is monotonic
                cols = np.flatnonzero(half * np.minimum(w - edges[i - 1], edges[i] - w) < 0.5)
                x = np.subtract.outer(fa, w[cols])
                h = half * x
                small = np.abs(h) < 0.5
                s[:, cols] = np.where(small, t * np.divide(np.sin(h), h, out=np.ones_like(h), where=h != 0),
                                      s[:, cols])
                near = cols, x, small, phi_kernel(x, t)
            yield w, c[start:start + w.size], s, u, trig, near or None


def _pairwise_sum(items, zero):
    """Sum of an iterable of arrays added pairwise; `zero` if it is empty.

    A binary counter of partial sums merges two partials of equal block count,
    so the rounding of the sum grows with the log of its block count, as
    numpy's own pairwise sums do, not with the count.
    """
    stack = []  # (block count, partial sum), counts strictly decreasing
    for total in items:
        count = 1
        while stack and stack[-1][0] == count:
            total = stack.pop()[1] + total
            count *= 2
        stack.append((count, total))
    while stack:
        zero = stack.pop()[1] + zero
    return zero
