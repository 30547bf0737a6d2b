import importlib.util
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import meanforce._quad as mq
from meanforce._quad import ladder, panel_chunks, panel_nodes, phi_diff_quotient, phi_kernel, principal_value
from meanforce.bath import (
    DiscreteBath,
    OhmicBath,
    SpectralMeasure,
    S_finite_time,
    _discretize,
    _smooth_domain,
    _structure_scale,
    bose_occupation,
    correlation_time_domain,
    finite_time_Gamma,
    gamma_finite_time,
    gamma_spectral,
    integrated_S_matrix,
    integrated_gamma_matrix,
    lamb_shift_S,
    measure_value,
    redfield_pair_matrices,
)
from meanforce.cli import parse_config
from meanforce.corrections import build_upsilon_table
from meanforce.errors import NumericsError, PoleError, ValidationError
from meanforce.generators import (
    build_davies_generator,
    build_redfield_generator,
    cumulant_map,
    interaction_redfield_generator,
)


def panel_rule(lo, hi, osc_freq, structure_scale):
    """The whole panel rule: the nodes and weights of every chunk, joined."""
    return tuple(map(np.concatenate, zip(*panel_chunks(lo, hi, osc_freq, structure_scale))))


def panel_quad(f, lo, hi, osc_freq, structure_scale):
    """Reference integral of a vectorised (possibly complex) f on the panel grid."""
    nodes, weights = panel_rule(lo, hi, osc_freq, structure_scale)
    return np.sum(weights * f(nodes))


def exact_sum(z):
    """Correctly rounded sum of a complex array: math.fsum of each part.

    The result does not depend on the order of the terms; fsum's speed does,
    so the nonzero terms go in largest first.
    """
    def part(x):
        x = x[x != 0.0]
        return math.fsum(x[np.argsort(-np.abs(x))].tolist())

    return complex(part(z.real), part(z.imag))


def box_measure(c=1.0, half_width=3.0, beta=1.0):
    def density(w):
        w = np.asarray(w, dtype=float)
        return np.where(np.abs(w) <= half_width, c, 0.0)

    return SpectralMeasure(beta=beta, density=density, atoms=(),
                           scale=half_width, support=half_width)


class TestSpectralMeasure:
    def test_ohmic_zero_frequency_limit(self, bath):
        # coth expansion: gamma(0) = 2 pi gamma_c / beta
        assert measure_value(bath, 0.0) == pytest.approx(2 * np.pi, rel=1e-12)
        assert measure_value(bath, 1e-9) == pytest.approx(2 * np.pi, rel=1e-6)

    def test_ohmic_detailed_balance_at_one(self, bath):
        ratio = measure_value(bath, -1.0) / measure_value(bath, 1.0)
        assert ratio == pytest.approx(np.exp(-1.0), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(w=st.floats(0.01, 40.0))
    def test_ohmic_detailed_balance_property(self, w):
        bath = OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0)
        lhs = measure_value(bath, -w)
        rhs = measure_value(bath, w) * np.exp(-w)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_discrete_atom_weights(self):
        bath = DiscreteBath(beta=0.7, modes=((2.0, 0.3),))
        m = gamma_spectral(bath)
        atoms = dict(m.atoms)
        n = bose_occupation(0.7, 2.0)
        assert atoms[2.0] == pytest.approx(2 * np.pi * 0.09 * (n + 1), rel=1e-12)
        # Bose factor identity n/(n+1) = e^{-beta W}
        assert atoms[-2.0] / atoms[2.0] == pytest.approx(np.exp(-1.4), rel=1e-12)

    def test_invalid_baths_rejected(self):
        with pytest.raises(ValidationError):
            OhmicBath(beta=-1.0, coupling=1.0, cutoff=1.0)
        with pytest.raises(ValidationError):
            OhmicBath(beta=1.0, coupling=1.0, cutoff=0.0)
        with pytest.raises(ValidationError):
            DiscreteBath(beta=1.0, modes=((-1.0, 0.2),))


class TestLambShift:
    def test_box_spectrum_analytic(self):
        # PV of a box kernel: S(w) = (c/2pi) ln((W+w)/(W-w))
        m = box_measure(c=2.0, half_width=3.0)
        for w in (0.5, 1.0, 2.5):
            expect = 2.0 / (2 * np.pi) * np.log((3.0 + w) / (3.0 - w))
            assert lamb_shift_S(m, w) == pytest.approx(expect, abs=1e-9)

    def test_even_spectrum_vanishes_at_zero(self):
        assert lamb_shift_S(box_measure(), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_ohmic_against_cauchy_weight_oracle(self, bath):
        # independent scheme: QUADPACK's QAWC principal value on the whole line;
        # S(w) = -(1/2pi) PV int gamma(W)/(W - w) dW
        m = gamma_spectral(bath)
        w = 1.0
        lo, hi = -m.support - 2.0, m.support + 2.0

        def dens(x):
            return float(m.density(np.asarray(x)))

        pv = quad(dens, lo, hi, weight="cauchy", wvar=w,
                  epsabs=1e-11, epsrel=1e-11, limit=2000)[0]
        oracle = -pv / (2 * np.pi)
        assert lamb_shift_S(bath, w) == pytest.approx(oracle, abs=1e-7)

    def test_discrete_atoms_pole_free_sum(self):
        bath = DiscreteBath(beta=1.0, modes=((2.0, 0.5),))
        m = gamma_spectral(bath)
        atoms = dict(m.atoms)
        expect = atoms[2.0] / (2 * np.pi * (0.7 - 2.0)) + atoms[-2.0] / (2 * np.pi * (0.7 + 2.0))
        assert lamb_shift_S(bath, 0.7) == pytest.approx(expect, rel=1e-12)
        with pytest.raises(PoleError):
            lamb_shift_S(bath, 2.0)


class TestPrincipalValue:
    """PV int_lo^hi dx / (p - x) = ln((p - lo) / (hi - p)), whatever the starting edges: the
    `ladder` of scale 1e-3 cuts the domain at 0 and 12 more points, that of scale 1e3 at 0."""

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    @pytest.mark.parametrize("pole", [-1.0 + 3e-3, 0.7, 2.0 - 3e-3])
    def test_reciprocal_against_log(self, pole, scale):
        lo, hi = -1.0, 2.0
        value, _, failed = principal_value(lambda x, k: 1.0 / (pole - x), np.array([pole]), lo, hi,
                                           edges=ladder(scale, hi))
        expect = np.log((pole - lo) / (hi - pole))
        assert failed == {} and abs(value[0] - expect) <= 1e-12 * abs(expect)

    @pytest.mark.parametrize("pole", [-1.0, 2.0, 3.0])
    def test_pole_outside_domain_rejected(self, pole):
        with pytest.raises(ValidationError):
            principal_value(lambda x, k: 1.0 / (pole - x), np.array([pole]), -1.0, 2.0)


class TestLongTimePair:
    """gamma(w,w',oo) and S(w,w',oo) agree with their definitions from Gamma(w,oo)."""

    @pytest.fixture(scope="class", params=["ohmic", "discrete", "mixed"])
    def measure(self, request, bath):
        modes = gamma_spectral(DiscreteBath(beta=bath.beta, modes=((1.3, 0.4), (2.1, 0.25))))
        smooth = gamma_spectral(bath)
        return {"ohmic": smooth, "discrete": modes,
                "mixed": replace(smooth, atoms=modes.atoms)}[request.param]

    @pytest.mark.parametrize("w, wp", [(1.0, -0.6), (0.0, 0.7), (-1.0, 1.0), (0.7, 0.7)])
    def test_pair_from_gamma_infinity(self, measure, w, wp):
        g, gp = finite_time_Gamma(measure, w, np.inf), finite_time_Gamma(measure, wp, np.inf)
        scale = abs(g) + abs(gp)
        assert abs(gamma_finite_time(measure, w, wp, np.inf) - (gp + np.conj(g))) <= 1e-14 * scale
        assert abs(S_finite_time(measure, w, wp, np.inf) - (gp - np.conj(g)) / 2j) <= 1e-14 * scale


class TestFiniteTimeGamma:
    def test_zero_time(self, bath):
        assert finite_time_Gamma(bath, 1.0, 0.0) == 0.0

    def test_negative_time_rejected(self, bath):
        with pytest.raises(ValidationError):
            finite_time_Gamma(bath, 1.0, -1.0)

    def test_infinite_time_sentinel(self, bath):
        g = finite_time_Gamma(bath, 1.0, np.inf)
        assert g.real == pytest.approx(0.5 * measure_value(bath, 1.0), rel=1e-12)
        assert g.imag == pytest.approx(lamb_shift_S(bath, 1.0), rel=1e-12)

    def test_long_time_convergence_rate(self, bath):
        # Ohmic correlations have power-law tails: Gamma(w,t) -> Gamma(w,oo) ~ 1/t^2
        ginf = finite_time_Gamma(bath, 1.0, np.inf)
        d15 = abs(finite_time_Gamma(bath, 1.0, 15.0) - ginf)
        d60 = abs(finite_time_Gamma(bath, 1.0, 60.0) - ginf)
        assert d60 < d15 / 8.0

    def test_small_time_linear_in_C0(self, bath):
        c0 = correlation_time_domain(bath, 0.0)
        errs = []
        for t in (1e-3 / 50.0, 1e-4 / 50.0):
            g = finite_time_Gamma(bath, 1.0, t)
            errs.append(abs(g - t * c0))
        # O(t) relative deviation, here t * wc * O(1)
        assert errs[0] / abs(c0 * 1e-3 / 50.0) < 2e-3
        # absolute error decays quadratically in t
        assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.5)

    def test_pair_coefficient_algebra(self, bath):
        w, wp = 1.0, -0.6
        # t = 0
        assert gamma_finite_time(bath, w, wp, 0.0) == 0.0
        assert S_finite_time(bath, w, wp, 0.0) == 0.0
        # diagonal long-time limits are real
        g = gamma_finite_time(bath, w, w, np.inf)
        s = S_finite_time(bath, w, w, np.inf)
        assert abs(g.imag) <= 1e-14 and g.real == pytest.approx(measure_value(bath, w), rel=1e-12)
        assert abs(s.imag) <= 1e-14 and s.real == pytest.approx(lamb_shift_S(bath, w), rel=1e-12)
        # cross formula from Gamma(oo)
        gx = gamma_finite_time(bath, w, wp, np.inf)
        expect = 0.5 * (measure_value(bath, w) + measure_value(bath, wp)) + 1j * (
            lamb_shift_S(bath, wp) - lamb_shift_S(bath, w))
        assert gx == pytest.approx(expect, rel=1e-12)


class TestCorrelationFunction:
    def test_discrete_single_mode_closed_form(self):
        bath = DiscreteBath(beta=0.9, modes=((1.7, 0.4),))
        n = bose_occupation(0.9, 1.7)
        for t in (0.0, 0.3, 2.0):
            expect = 0.16 * ((n + 1) * np.exp(-1.7j * t) + n * np.exp(1.7j * t))
            assert correlation_time_domain(bath, t) == pytest.approx(expect, rel=1e-12)

    def test_equal_time_positive(self, bath):
        c0 = correlation_time_domain(bath, 0.0)
        assert abs(c0.imag) <= 1e-9 * c0.real
        assert c0.real > 0

    def test_conjugation_symmetry(self, bath):
        c = correlation_time_domain(bath, 0.37)
        cm = correlation_time_domain(bath, -0.37)
        assert cm == pytest.approx(np.conj(c), rel=1e-10)

    def test_fourier_consistency(self, bath):
        # independent inverse-transform oracle on the panel grid
        m = gamma_spectral(bath)
        t = 0.1 / 50.0
        lo, hi = -m.support - 1.0, m.support + 1.0
        oracle = panel_quad(lambda w: m.density(w) * np.exp(-1j * w * t),
                            lo, hi, t, structure_scale=0.5) / (2 * np.pi)
        val = correlation_time_domain(bath, t)
        assert abs(val - oracle) <= 1e-6 * abs(val)


class TestIntegratedCoefficients:
    def test_zero_time_is_zero(self, bath):
        m = integrated_gamma_matrix(bath, (-1.0, 0.0, 1.0), 0.0)
        assert np.abs(m).max() == 0.0

    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_integrated_gamma_psd(self, bath, t):
        freqs = (-1.0, 0.0, 1.0)
        m = integrated_gamma_matrix(bath, freqs, t)
        lam_min = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
        assert lam_min >= -1e-9 * np.trace(m).real

    def test_two_by_two_psd_pair(self, bath):
        # the 2x2 pair block stays PSD
        for t in (0.5, 5.0):
            m = integrated_gamma_matrix(bath, (1.0, -1.0), t)
            lam_min = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
            assert lam_min >= -1e-9 * np.trace(m).real

    def test_derivative_matches_pair_coefficients(self, bath):
        # d/dt of the integrated matrices reproduces gamma~ and S~ at t
        freqs = (-1.0, 0.0, 1.0)
        t, h = 2.0, 1e-4
        for builder, pair in (
            (integrated_gamma_matrix, gamma_finite_time),
            (integrated_S_matrix, S_finite_time),
        ):
            der = (builder(bath, freqs, t + h) - builder(bath, freqs, t - h)) / (2 * h)
            for i, w in enumerate(freqs):
                for j, wp in enumerate(freqs):
                    expect = np.exp(1j * (w - wp) * t) * pair(bath, w, wp, t)
                    assert abs(der[i, j] - expect) <= 2e-6

    @pytest.mark.parametrize("t", [2.0, 10.0, 20.0])
    def test_cumulant_rate_is_redfield_pair_on_one_node_set(self, bath, t):
        # at fixed nodes d/dt phi_t(x) = e^{ixt}, so d xi/dt = gamma(w,w',t) e^{i(w-w')t}
        # exactly; the library's xi and the Redfield pair must both sit on these nodes
        fa = np.array([-1.0, 0.0, 1.0])
        nodes, c = _discretize(gamma_spectral(bath), t, 1.0)
        x = fa[None, :] - nodes[:, None]
        phi, rate = phi_kernel(x, t), np.exp(1j * x * t)
        xi = np.array([[exact_sum(c * phi[:, i] * phi[:, j].conj()) for j in range(fa.size)]
                       for i in range(fa.size)])
        dxi = np.einsum("n,ni,nj->ij", c, rate, phi.conj()) + np.einsum("n,ni,nj->ij", c, phi, rate.conj())
        assert np.abs(integrated_gamma_matrix(bath, tuple(fa), t) - xi).max() <= 1e-13 * np.abs(xi).max()
        pair = redfield_pair_matrices(bath, tuple(fa), t)[0] * np.exp(1j * (fa[:, None] - fa[None, :]) * t)
        assert np.abs(dxi - pair).max() <= 1e-11 * np.abs(pair).max()

    def test_asymptotic_split_matches_direct(self, bath):
        # the t > 60 beta split must agree with the direct panel route
        import meanforce.bath as mb

        freqs = (-1.0, 0.0, 1.0)
        t = 80.0
        split_gamma = integrated_gamma_matrix(bath, freqs, t)
        split_S = integrated_S_matrix(bath, freqs, t)
        original = mb._split_time
        mb._split_time = lambda m: 1e12
        mb._integrated_matrices_cached.cache_clear()
        try:
            direct_gamma = integrated_gamma_matrix(bath, freqs, t)
            direct_S = integrated_S_matrix(bath, freqs, t)
        finally:
            mb._split_time = original
            mb._integrated_matrices_cached.cache_clear()
        assert np.abs(split_gamma - direct_gamma).max() <= 2e-3
        assert np.abs(split_S - direct_S).max() <= 2e-3

    @pytest.mark.parametrize("freqs", [(-1.0, 0.0, 0.7, 1.0), (-1.0, 0.7, 1.0)],
                             ids=["with_zero", "without_zero"])
    def test_tail_past_split_equals_per_entry_formula(self, bath, freqs):
        # past t0 the A(0) log tail is evaluated on the w = 0 row and column only, in one
        # exp1 call; the matrices keep the bits of the per-entry formula on all n^2 entries
        import meanforce.bath as mb
        from scipy.special import exp1

        measure = gamma_spectral(bath)
        t0, t, c = mb._split_time(measure), 200.0, measure.tail_zero_coeff
        xi0, sig0 = integrated_gamma_matrix(bath, freqs, t0), integrated_S_matrix(bath, freqs, t0)
        k_inf, s_inf = redfield_pair_matrices(bath, freqs, np.inf)
        fa = np.array(freqs)
        delta = fa[:, None] - fa[None, :]
        step = phi_kernel(delta, t) - phi_kernel(delta, t0)
        tail = np.array([[complex(exp1(-1j * d * t0) - exp1(-1j * d * t)) if d else complex(np.log(t / t0))
                          for d in row] for row in delta])
        zero = (fa == 0.0).astype(float)
        xi = xi0 + k_inf * step + c * (zero[None, :] + zero[:, None]) * tail
        sig = sig0 + s_inf * step + c * (zero[None, :] - zero[:, None]) * tail / 2.0j
        assert np.array_equal(integrated_gamma_matrix(bath, freqs, t), xi)
        assert np.array_equal(integrated_S_matrix(bath, freqs, t), sig)

    def test_long_time_reuses_cached_split(self, bath, monkeypatch):
        # every t > 60 beta builds on the cached t0 matrices: one discretisation in all
        import meanforce.bath as mb

        calls = []
        discretize = mb._discretize
        monkeypatch.setattr(mb, "_discretize", lambda *args: calls.append(args) or discretize(*args))
        mb._integrated_matrices_cached.cache_clear()
        for t in (100.0, 101.0, 200.0):
            integrated_S_matrix(bath, (-1.0, 0.0, 1.0), t)
        assert len(calls) == 1

    def test_one_phi_table_and_quotients_only_in_switch_columns(self, bath, monkeypatch):
        # xi and Xi are sums over one walk of the phi blocks; only a column j with a
        # node |(w_j - W_k) t| < 1e-6 calls the difference quotient, once
        import meanforce.bath as mb

        tables, quotients = [], []
        table, quotient = mb._phi_blocks, mb.phi_diff_quotient
        monkeypatch.setattr(mb, "_phi_blocks", lambda *args: tables.append(args[1:]) or table(*args))
        monkeypatch.setattr(mb, "phi_diff_quotient", lambda *args: quotients.append(1) or quotient(*args))
        freqs = (-1.0, 0.0, 0.7, 1.0)
        modes = gamma_spectral(DiscreteBath(beta=bath.beta, modes=((1.0, 0.4),)))
        on_bohr = replace(gamma_spectral(bath), atoms=modes.atoms)
        for measure, switch_columns in ((gamma_spectral(bath), 0), (on_bohr, 2)):
            mb._integrated_matrices_cached.cache_clear()
            tables.clear()
            quotients.clear()
            for t in (2.0, 5.0):
                integrated_gamma_matrix(measure, freqs, t)
                integrated_S_matrix(measure, freqs, t)
            assert tables == [(freqs, 2.0), (freqs, 5.0)]
            assert len(quotients) == 2 * switch_columns

    @pytest.fixture(scope="class")
    def measures(self, bath):
        modes = gamma_spectral(DiscreteBath(beta=bath.beta, modes=((1.3, 0.4), (2.1, 0.25))))
        smooth = gamma_spectral(bath)
        return {"ohmic": smooth, "discrete": modes, "mixed": replace(smooth, atoms=modes.atoms)}

    @staticmethod
    def two_term_xi(measure, freqs, t):
        """Xi_ij = -(1/2) sum_k c_k [DQ(w_i - W_k, w_i - w_j) - DQ(W_k - w_j, w_i - w_j)]."""
        import meanforce.bath as mb

        nodes, c = mb._discretize(measure, t, max(abs(f) for f in freqs))

        def dq(x, x0):
            return phi_diff_quotient(x, phi_kernel(x, t), x0, t)

        return np.array([[-0.5 * np.sum(c * (dq(w - nodes, w - wp) - dq(nodes - wp, w - wp)))
                          for wp in freqs] for w in freqs])

    @pytest.mark.parametrize("t", [0.5, 5.0])
    @pytest.mark.parametrize("name", ["ohmic", "discrete", "mixed"])
    def test_S_matrix_matches_two_term_formula(self, measures, name, t):
        freqs = (-1.0, 0.0, 0.7, 1.0)
        expect = self.two_term_xi(measures[name], freqs, t)
        sig = integrated_S_matrix(measures[name], freqs, t)
        assert np.abs(sig - expect).max() <= 1e-14 * np.abs(sig).max()
        assert np.array_equal(sig, sig.conj().T)

    @staticmethod
    def summed_exactly(measure, freqs, t):
        """(xi, Xi) of the library's discretised sums with every entry summed by exact_sum:
        xi_ij = sum_k c_k phi_ki phi_kj^*, D_ij = sum_k c_k DQ(w_i - W_k, w_i - w_j), Xi = -(D + D^dag)/2."""
        fa = np.array(freqs)
        nodes, c = _discretize(measure, t, np.abs(fa).max())
        phi = phi_kernel(fa[None, :] - nodes[:, None], t)
        n = fa.size
        xi = np.array([[exact_sum(c * phi[:, i] * phi[:, j].conj()) for j in range(n)] for i in range(n)])
        d = np.array([[exact_sum(c * phi_diff_quotient(fa[i] - nodes, phi[:, i], fa[i] - fa[j], t))
                       for j in range(n)] for i in range(n)])
        return xi, -0.5 * (d + d.conj().T)

    @staticmethod
    def d7_allowance(measure, freqs, t):
        """Error allowed on Xi for atoms just above the quotient's switch, 1e-6 <= |(w_j - W) t| < 1e-3.

        ROADMAP D7: a quotient there errs by about 2.5 eps max(1, |x0 t|) / |(x - x0) t|
        relative.  The reference carries that error; the product route adds about four
        times as much, because an atom's terms c (phi_ki, phi_t(w_i - w_j)) / (w_j - W)
        are accumulated in the product and the column sum before they cancel.  The
        allowance is ten times the D7 estimate.
        """
        fa = np.array(freqs)
        allowance = np.zeros((fa.size, fa.size))
        for loc, weight in measure.atoms:
            gap = np.abs(fa - loc) * t
            for j in np.flatnonzero((gap >= 1e-6) & (gap < 1e-3)):
                x, x0 = fa - loc, fa - fa[j]
                q = phi_diff_quotient(x, phi_kernel(x, t), x0, t)
                d7 = 2.5 * np.finfo(float).eps * np.maximum(1.0, np.abs(x0 * t)) / gap[j]
                allowance[:, j] += 10.0 * weight / (2.0 * np.pi) * np.abs(q) * d7
        return 0.5 * (allowance + allowance.T)

    def check_exactly_summed(self, measures, name, t, freqs=(-1.0, 0.0, 0.7, 1.0)):
        # near_switch: atoms exactly on the Bohr frequencies +-1 (midpoint branch)
        # and at 0.7 + 2e-6/t, just above the switch of the column w_j = 0.7
        if name == "near_switch":
            modes = DiscreteBath(beta=measures["ohmic"].beta, modes=((1.0, 0.4), (0.7 + 2e-6 / t, 0.3)))
            measure = replace(measures["ohmic"], atoms=gamma_spectral(modes).atoms)
        else:
            measure = measures[name]
        xi_ref, sig_ref = self.summed_exactly(measure, freqs, t)
        xi, sig = integrated_gamma_matrix(measure, freqs, t), integrated_S_matrix(measure, freqs, t)
        assert np.array_equal(xi, xi.conj().T) and np.array_equal(sig, sig.conj().T)
        assert np.abs(xi - xi_ref).max() <= 1e-14 * np.abs(xi_ref).max()
        allowance = self.d7_allowance(measure, freqs, t)
        assert (name == "near_switch") == (allowance.max() > 0.0)
        assert np.all(np.abs(sig - sig_ref) <= 1e-14 * np.abs(sig_ref).max() + allowance)

    @pytest.mark.parametrize("t", [0.5, 5.0, 20.0, 50.0])
    @pytest.mark.parametrize("name", ["ohmic", "discrete", "mixed", "near_switch"])
    def test_matches_exactly_summed_reference(self, measures, name, t):
        self.check_exactly_summed(measures, name, t)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("name", ["ohmic", "discrete", "mixed", "near_switch"])
    def test_block_size_keeps_exactly_summed_reference(self, measures, name, block, monkeypatch):
        # xi and Xi accumulate block by block; the default block size is covered above
        import meanforce.bath as mb

        monkeypatch.setattr(mb, "_PHI_BLOCK", block)
        mb._integrated_matrices_cached.cache_clear()
        try:
            self.check_exactly_summed(measures, name, 0.5)
        finally:
            mb._integrated_matrices_cached.cache_clear()

    def test_panel_node_on_the_near_edge(self, measures):
        # a panel node exactly on |h| = |w - W_k| t / 2 = 1/2, the edge of the near
        # slices: a fifth frequency w = W_k + 1/2 at t = 2 (inside the reach 1, so the
        # panel rule is the same)
        t, measure = 2.0, measures["ohmic"]
        nodes, _ = _discretize(measure, t, 1.0)
        edge = next(w for w in nodes if 0.1 < w < 0.4 and (w + 0.5) - w == 0.5)
        freqs = (-1.0, 0.0, 0.7, 1.0, edge + 0.5)
        assert np.array_equal(_discretize(measure, t, 1.0)[0], nodes)
        assert 0.5 in np.abs(0.5 * t * (freqs[-1] - nodes))
        self.check_exactly_summed(measures, "ohmic", t, freqs)

    @staticmethod
    def phi_table_sums(measure, freqs, t):
        """(xi, Xi, Gamma, phase) summed directly from phi_kernel on every node, a chunk of
        4096 nodes at a time: xi = sum_k c_k phi_ki phi_kj^*, Gamma_i = sum_k c_k phi_ki and
        D = phi R^T - phi_t(w_i - w_j) sum_k R_jk, each chunk's D cancelled on its own.
        phase_i = sum_k |c_k| 2 eps (1 + t max(|w_i|, |W_k|)) min(t, 2/|x_ik|) sums the
        rotation's bound on |phi - phi_kernel| into Gamma_i."""
        fa, eps = np.array(freqs), np.finfo(float).eps
        nodes, c = _discretize(measure, t, np.abs(fa).max())
        pair = phi_kernel(fa[:, None] - fa[None, :], t)
        xi, d, gamma, phase = 0.0, 0.0, 0.0, 0.0
        for s in range(0, nodes.size, 4096):
            x, ck = fa[:, None] - nodes[None, s:s + 4096], c[s:s + 4096]
            assert np.abs(x * t).min() >= 1e-6  # no node inside the quotient's switch
            phi, r = phi_kernel(x, t), ck / x
            xi = xi + phi @ (ck * phi.conj()).T
            d = d + (phi @ r.T - pair * r.sum(axis=1))
            gamma = gamma + phi @ ck
            reach = np.maximum(np.abs(fa)[:, None], np.abs(nodes[None, s:s + 4096]))
            phase = phase + (2.0 * eps * (1.0 + t * reach) * np.minimum(t, 2.0 / np.abs(x))) @ np.abs(ck)
        return xi, -0.5 * (d + d.conj().T), gamma, phase

    @pytest.mark.parametrize("t", [2.0, 10.0])
    def test_seeded_d8_against_phi_table(self, bath, t):
        # the seeded d = 8 system of ROADMAP.md, 57 Bohr frequencies: xi and Xi within
        # 1e-14 of the direct phi-table sums.  The finite-time Redfield pair sums
        # Gamma_i = sum_k c_k phi_ik, whose terms keep the rounding of the half-phase
        # t W_k / 2 on either route (2.0e-14 of max|K| at t = 10 with the rotation
        # alone), so each cell may also carry the phase bound of Gamma_i and Gamma_j
        from test_corrections import _seeded_many_level

        freqs = _seeded_many_level(8)[0].frequencies
        assert len(freqs) == 57
        measure = gamma_spectral(bath)
        xi_ref, sig_ref, gamma, phase = self.phi_table_sums(measure, freqs, t)
        xi, sig = integrated_gamma_matrix(measure, freqs, t), integrated_S_matrix(measure, freqs, t)
        assert np.abs(xi - xi_ref).max() <= 1e-14 * np.abs(xi_ref).max()
        assert np.abs(sig - sig_ref).max() <= 1e-14 * np.abs(sig_ref).max()
        allowance = phase[None, :] + phase[:, None]
        k, s = redfield_pair_matrices(measure, freqs, t)
        for got, ref in zip((k, s), (gamma[None, :] + gamma.conj()[:, None],
                                     (gamma[None, :] - gamma.conj()[:, None]) / 2.0j)):
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref).max() + allowance)

    @pytest.mark.parametrize("t", [0.5, 10.0, 100.0])
    @pytest.mark.parametrize("freqs", [(-1.0, 0.0, 0.7, 1.0), "evolve_d4"])
    def test_rotation_phi_against_phi_kernel(self, measures, freqs, t):
        # both routes carry the rounding of the half-phases a_i = t w_i / 2 and
        # b_k = t W_k / 2: |phi - phi_kernel| <= 2 eps (1 + t max(|w_i|, |W_k|)) min(t, 2/|x|),
        # where min(t, 2/|x|) bounds |phi_t(x)|.  A near block's phi is the factorised
        # rotation, with phi_kernel's own bits where |x t / 2| < 1/2; a far block's is
        # the phi e^{ia_i} s_ik e^{-ib_k} its (u, cos b, sin b) imply, and no far entry
        # has |x t / 2| < 1/2.  The walk visits every node once, in order (atoms at +-1
        # sit on two Bohr frequencies)
        import meanforce.bath as mb

        if freqs == "evolve_d4":
            freqs = tuple(sorted(set(evolve_d4_frequencies(0))))
        measure = replace(measures["ohmic"], atoms=gamma_spectral(
            DiscreteBath(beta=measures["ohmic"].beta, modes=((1.0, 0.4),))).atoms)
        fa, eps = np.array(freqs), np.finfo(float).eps
        a = 0.5 * t * fa[:, None]
        walked, small_entries, far_nodes = [], 0, 0
        for nodes, c, near, far in mb._phi_blocks(measure, freqs, t):
            x = fa[:, None] - nodes[None, :]
            ref = phi_kernel(x, t)
            below = np.abs(0.5 * t * x) < 0.5
            if far is None:
                x_walk, phi, small = near
                assert np.array_equal(x_walk, x)
                if small is None:
                    assert not below.any()
                else:
                    assert np.array_equal(small, below)
                    assert np.array_equal(phi[small], ref[small])
                    small_entries += int(below.sum())
            else:
                u, cos_b, sin_b = far
                assert near is None and not below.any()
                assert np.array_equal(u, 1.0 / x)
                s = 2.0 * (np.sin(a) * cos_b - np.cos(a) * sin_b) * u
                phi = np.exp(1j * a) * s * (cos_b - 1j * sin_b)
                far_nodes += nodes.size
            reach = np.maximum(np.abs(fa)[:, None], np.abs(nodes)[None, :])
            with np.errstate(divide="ignore"):
                size = np.minimum(t, 2.0 / np.abs(x))
            assert np.all(np.abs(phi - ref) <= 2.0 * eps * (1.0 + t * reach) * size)
            walked.append((nodes, c))
        nodes, c = map(np.concatenate, zip(*walked))
        expect = mb._discretize(measure, t, np.abs(fa).max())
        assert np.array_equal(nodes, expect[0]) and np.array_equal(c, expect[1])
        assert small_entries >= 2 and far_nodes > nodes.size // 2

    @staticmethod
    def midpoint_nodes(measure, freqs, t, monkeypatch):
        """(Xi, nodes passed to phi_kernel_prime, small-mask entries of _integrated_direct)."""
        import meanforce._quad as mq
        import meanforce.bath as mb

        nodes, _ = mb._discretize(measure, t, max(abs(f) for f in freqs))
        small = sum(int(np.sum(np.abs(((w - nodes) - (w - wp)) * t) < 1e-6))
                    for w in freqs for wp in freqs)
        seen = []
        prime = mq.phi_kernel_prime
        mb._integrated_matrices_cached.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(mq, "phi_kernel_prime", lambda x, t: seen.append(np.size(x)) or prime(x, t))
            sig = integrated_S_matrix(measure, freqs, t)
        return sig, sum(seen), small

    def test_midpoint_branch_only_where_taken(self, bath, monkeypatch):
        _, passed, small = self.midpoint_nodes(gamma_spectral(bath), (-1.0, 0.0, 0.7, 1.0), 2.0,
                                               monkeypatch)
        assert passed == small

    @pytest.mark.parametrize("t", [0.5, 5.0])
    def test_atom_on_a_bohr_frequency_takes_midpoint(self, measures, t, monkeypatch):
        # atoms at W = +-1 are nodes exactly on the Bohr frequencies w_j = +-1
        freqs = (-1.0, 0.0, 0.7, 1.0)
        modes = gamma_spectral(DiscreteBath(beta=measures["ohmic"].beta, modes=((1.0, 0.4),)))
        measure = replace(measures["ohmic"], atoms=modes.atoms)
        sig, passed, small = self.midpoint_nodes(measure, freqs, t, monkeypatch)
        assert passed == small >= 2 * len(freqs)
        expect = self.two_term_xi(measure, freqs, t)
        assert np.abs(sig - expect).max() <= 1e-14 * np.abs(sig).max()


def evolve_d4_frequencies(seed):
    """Bohr frequencies of the benchmark's seeded d=4 `evolve` system, as the CLI decomposes it."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg = parse_config(workloads.make_config("evolve_d4", seed, "out.csv"))
    return tuple(w for j in cfg.jump_list() for w in j.frequencies)


class TestWeightFloor:
    """`_discretize` keeps the panel nodes with |c_k| > eps max|c| / N, and every atom."""

    @staticmethod
    def full_panel(measure, t, reach):
        """The panel rule's nodes and quadrature weights, before the floor."""
        lo, hi = _smooth_domain(measure, reach)
        return panel_rule(lo, hi, t, structure_scale=_structure_scale(measure))

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_kept_nodes_are_panel_nodes_bit_for_bit(self, bath, t):
        measure = gamma_spectral(bath)
        nodes, c = _discretize(measure, t, 1.0)
        panel, weights = self.full_panel(measure, t, 1.0)
        keep = np.isin(panel, nodes)
        assert np.array_equal(panel[keep], nodes)
        assert np.array_equal(weights[keep] * measure.density(nodes) / (2.0 * np.pi), c)
        assert nodes.size < 0.6 * panel.size  # the Bose factor puts about half below the floor

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_dropped_weight_below_rounding(self, bath, t):
        measure = gamma_spectral(bath)
        nodes, _ = _discretize(measure, t, 1.0)
        panel, weights = self.full_panel(measure, t, 1.0)
        c = weights * measure.density(panel) / (2.0 * np.pi)
        dropped = ~np.isin(panel, nodes)
        assert dropped.any()
        assert np.abs(c[dropped]).sum() <= np.finfo(float).eps * np.abs(c).max()

    def test_non_finite_density_raises(self, bath):
        smooth = gamma_spectral(bath)

        def density(w):
            w = np.asarray(w, dtype=float)
            return np.where(w > 5.0, np.nan, smooth.density(w))

        measure = replace(smooth, density=density)
        freqs = (-1.0, 0.0, 1.0)
        with pytest.raises(NumericsError, match="not finite at W = "):
            integrated_gamma_matrix(measure, freqs, 2.0)
        with pytest.raises(NumericsError, match="not finite at W = "):
            redfield_pair_matrices(measure, freqs, 2.0)

    def test_negative_density_keeps_its_nodes(self, bath):
        # |c| in the floor: a sign error stays visible as a non-PSD xi
        smooth = gamma_spectral(bath)
        negated = replace(smooth, density=lambda w: -smooth.density(w))
        nodes, c = _discretize(smooth, 2.0, 1.0)
        neg_nodes, neg_c = _discretize(negated, 2.0, 1.0)
        assert np.array_equal(neg_nodes, nodes) and np.array_equal(neg_c, -c)
        freqs = (-1.0, 0.0, 1.0)
        xi = integrated_gamma_matrix(negated, freqs, 2.0)
        assert np.array_equal(xi, -integrated_gamma_matrix(smooth, freqs, 2.0))
        assert np.linalg.eigvalsh(xi).min() < 0.0

    @pytest.mark.parametrize("t", [2.0, 80.0])
    def test_zero_coupling_gives_exact_zeros(self, t):
        # every weight is 0, so no panel node passes the floor
        bath = OhmicBath(beta=1.0, coupling=0.0, cutoff=50.0)
        freqs = (-1.0, 0.0, 1.0)
        assert _discretize(gamma_spectral(bath), t, 1.0)[0].size == 0
        for m in (integrated_gamma_matrix(bath, freqs, t), integrated_S_matrix(bath, freqs, t),
                  *redfield_pair_matrices(bath, freqs, t)):
            assert m.shape == (3, 3) and not m.any()
        assert finite_time_Gamma(bath, 0.5, t) == 0.0

    def test_atoms_of_weight_zero_are_kept(self, bath):
        silent = gamma_spectral(DiscreteBath(beta=bath.beta, modes=((1.3, 0.0), (2.1, 0.25))))
        nodes, c = _discretize(silent, 2.0, 1.0)
        assert np.array_equal(nodes, [1.3, -1.3, 2.1, -2.1]) and not c[:2].any()
        mixed = replace(gamma_spectral(bath), atoms=silent.atoms)
        nodes, c = _discretize(mixed, 2.0, 1.0)
        assert np.array_equal(nodes[:4], [1.3, -1.3, 2.1, -2.1]) and not c[:2].any()

    @pytest.mark.parametrize("t, most, before", [(2.0, 33_500, 64_144), (10.0, 53_000, 102_096)])
    def test_seeded_d4_table_size(self, bath, t, most, before):
        reach = np.abs(evolve_d4_frequencies(0)).max()
        nodes, _ = _discretize(gamma_spectral(bath), t, reach)
        assert self.full_panel(gamma_spectral(bath), t, reach)[0].size == before
        assert nodes.size <= most


class TestStreamedRule:
    """`_discretize` weighs the panel rule a chunk at a time and keeps the bits of the whole rule."""

    @staticmethod
    def one_shot(measure, t, reach):
        """(nodes, c, panel count) from the whole panel rule in one array, weighted and floored at once."""
        lo, hi = _smooth_domain(measure, reach)
        rule = panel_rule(lo, hi, t, _structure_scale(measure))
        n_panels = rule[0].size // 16
        panel, weights = panel_nodes(np.linspace(lo, hi, n_panels + 1))
        assert all(map(np.array_equal, rule, (panel, weights)))
        cw = weights * measure.density(panel) / (2.0 * np.pi)
        keep = np.abs(cw) > np.finfo(float).eps * np.abs(cw).max() / cw.size
        atoms = np.array(measure.atoms, dtype=float).reshape(-1, 2)
        return (np.concatenate([atoms[:, 0], panel[keep]]),
                np.concatenate([atoms[:, 1] / (2.0 * np.pi), cw[keep]]), n_panels)

    @pytest.mark.parametrize("chunk", [37, mq._PANEL_CHUNK])
    @pytest.mark.parametrize("t", [2.0, 10.0])
    @pytest.mark.parametrize("kind", ["ohmic", "negated", "mixed"])
    def test_kept_nodes_equal_the_one_shot_rule(self, bath, monkeypatch, chunk, t, kind):
        smooth = gamma_spectral(bath)
        measure = {"ohmic": smooth,
                   "negated": replace(smooth, density=lambda w: -smooth.density(w)),
                   "mixed": replace(smooth, atoms=((1.3, 0.4), (-1.3, 0.1), (2.1, 0.0)))}[kind]
        monkeypatch.setattr(mq, "_PANEL_CHUNK", chunk)
        nodes, c, n_panels = self.one_shot(measure, t, 1.0)
        assert n_panels > chunk and n_panels % chunk  # several chunks, the last one short
        got = _discretize(measure, t, 1.0)
        assert np.array_equal(got[0], nodes) and np.array_equal(got[1], c)

    def test_first_bad_node_of_a_later_chunk_is_named(self, bath):
        smooth = gamma_spectral(bath)

        def density(w):
            w = np.asarray(w, dtype=float)
            return np.where(w > 5.0, np.nan, smooth.density(w))

        measure = replace(smooth, density=density)
        lo, hi = _smooth_domain(measure, 1.0)
        panel, weights = panel_rule(lo, hi, 2.0, _structure_scale(measure))
        first = np.argmax(~np.isfinite(weights * density(panel)))
        assert first >= 16 * mq._PANEL_CHUNK
        with pytest.raises(NumericsError) as err:
            _discretize(measure, 2.0, 1.0)
        assert str(err.value) == f"spectral density weight is not finite at W = {panel[first]:.17g}"

    def test_discretize_peak_below_five_node_arrays(self, bath):
        # the whole rule with the density's temporaries over it peaked at 8.0 x 8N bytes
        import tracemalloc

        measure, reach = gamma_spectral(bath), np.abs(evolve_d4_frequencies(0)).max()
        n = panel_rule(*_smooth_domain(measure, reach), 10.0, _structure_scale(measure))[0].size
        _discretize(measure, 10.0, reach)
        tracemalloc.start()
        try:
            _discretize(measure, 10.0, reach)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 102_096
        assert peak <= 5 * 8 * n

    @pytest.mark.parametrize("beta, t, count, cause", [
        pytest.param(1e300, 1.0, "6.41e+304", "the structure scale min(cutoff, 1/beta)", id="structure"),
        pytest.param(1.0, 1e6, "1.02e+10", "the oscillation rate t", id="rate"),
    ])
    def test_panel_cap_message(self, beta, t, count, cause):
        # the count once printed as a 300-digit integer, and always blamed t
        measure = gamma_spectral(OhmicBath(beta=beta, coupling=1.0, cutoff=50.0))
        with pytest.raises(NumericsError) as err:
            _discretize(measure, t, 1.0)
        assert str(err.value).startswith(f"oscillatory grid needs {count} nodes (> 4000000)")
        assert str(err.value).endswith(f"set by {cause}")


def test_integrated_gamma_memory_bounded(bath):
    # no N x n array is held, only the node set and one block: at t = 10 the whole
    # table of 52,246 nodes x 13 frequencies and its temporaries peaked at 39 MB
    import tracemalloc

    import meanforce.bath as mb

    freqs = tuple(sorted(set(evolve_d4_frequencies(0))))
    mb._integrated_matrices_cached.cache_clear()
    tracemalloc.start()
    try:
        integrated_gamma_matrix(bath, freqs, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        mb._integrated_matrices_cached.cache_clear()
    assert peak <= 10e6


class TestMixedMeasure:
    """A density plus atoms: every finite-time transform is linear in the measure."""

    @pytest.fixture(scope="class")
    def parts(self, bath):
        modes = gamma_spectral(DiscreteBath(beta=bath.beta, modes=((1.3, 0.4), (2.1, 0.25))))
        smooth = gamma_spectral(bath)
        return replace(smooth, atoms=modes.atoms), smooth, modes

    @pytest.mark.parametrize("t", [0.5, 5.0])
    def test_finite_time_gamma_adds(self, parts, t):
        mixed, smooth, modes = parts
        for w in (-1.0, 0.0, 0.7, 1.0):
            total = finite_time_Gamma(smooth, w, t) + finite_time_Gamma(modes, w, t)
            assert abs(finite_time_Gamma(mixed, w, t) - total) <= 1e-13 * abs(total)

    @pytest.mark.parametrize("t", [0.5, 5.0])
    @pytest.mark.parametrize("builder", [integrated_gamma_matrix, integrated_S_matrix])
    def test_integrated_matrices_add(self, parts, builder, t):
        mixed, smooth, modes = parts
        freqs = (-1.0, 0.0, 0.7, 1.0)
        total = builder(smooth, freqs, t) + builder(modes, freqs, t)
        assert np.abs(builder(mixed, freqs, t) - total).max() <= 1e-13 * np.abs(total).max()


@pytest.mark.parametrize("build", [
    pytest.param(lambda h0, bath: build_upsilon_table(kind, [], bath), id=kind)
    for kind in ("dynamical", "mean_force", "steady_state")
] + [
    pytest.param(lambda h0, bath: build_upsilon_table("steady_state", [], bath, "cumulant"),
                 id="steady_state_cumulant"),
    pytest.param(lambda h0, bath: build_redfield_generator(h0, [], bath, 0.05), id="redfield"),
    pytest.param(lambda h0, bath: build_davies_generator(h0, [], bath, 0.05), id="davies"),
    pytest.param(lambda h0, bath: cumulant_map(h0, [], bath, 0.05, 2.0), id="cumulant"),
    pytest.param(lambda h0, bath: interaction_redfield_generator([], bath, 0.05, 2.0), id="interaction_redfield"),
])
def test_empty_jump_list_rejected(h0, bath, build):
    # bath_list rejects zero couplings, before any table or generator reads jumps[0]
    with pytest.raises(ValidationError, match="no couplings to tabulate"):
        build(h0, bath)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda b: finite_time_Gamma(b, 1.0, NAN), "t must be nonnegative", id="Gamma_t_nan"),
    pytest.param(lambda b: gamma_finite_time(b, 1.0, -1.0, NAN), "t must be nonnegative", id="gamma_t_nan"),
    pytest.param(lambda b: S_finite_time(b, 1.0, -1.0, NAN), "t must be nonnegative", id="S_t_nan"),
    pytest.param(lambda b: integrated_gamma_matrix(b, (-1.0, 1.0), NAN), "t must be", id="int_gamma_t_nan"),
    pytest.param(lambda b: integrated_gamma_matrix(b, (-1.0, 1.0), INF), "t must be", id="int_gamma_t_inf"),
    pytest.param(lambda b: integrated_S_matrix(b, (-1.0, 1.0), NAN), "t must be", id="int_S_t_nan"),
    pytest.param(lambda b: integrated_S_matrix(b, (-1.0, 1.0), INF), "t must be", id="int_S_t_inf"),
    pytest.param(lambda b: lamb_shift_S(b, NAN), "not finite", id="S_w_nan"),
    pytest.param(lambda b: lamb_shift_S(b, -INF), "not finite", id="S_w_inf"),
    pytest.param(lambda b: OhmicBath(beta=NAN, coupling=1.0, cutoff=1.0), "beta must be positive", id="ohmic_beta"),
    pytest.param(lambda b: OhmicBath(beta=1.0, coupling=1.0, cutoff=INF), "cutoff", id="ohmic_cutoff"),
    pytest.param(lambda b: OhmicBath(beta=1.0, coupling=NAN, cutoff=1.0), "coupling", id="ohmic_coupling"),
    # a support radius 40 max(cutoff, 1/beta) of inf ended every integral in np.arange
    pytest.param(lambda b: lamb_shift_S(OhmicBath(beta=1.0, coupling=1.0, cutoff=1e307), 1.0), "support radius",
                 id="ohmic_support_cutoff"),
    pytest.param(lambda b: lamb_shift_S(OhmicBath(beta=1e-307, coupling=1.0, cutoff=1.0), 1.0), "support radius",
                 id="ohmic_support_beta"),
    pytest.param(lambda b: DiscreteBath(beta=NAN, modes=((1.0, 0.3),)), "beta must be positive", id="discrete_beta"),
    pytest.param(lambda b: DiscreteBath(beta=1.0, modes=((INF, 0.3),)), "frequencies", id="discrete_mode"),
    pytest.param(lambda b: DiscreteBath(beta=1.0, modes=((1.0, NAN),)), "coupling", id="discrete_coupling"),
    pytest.param(lambda b: correlation_time_domain(b, NAN), "t must be finite", id="corr_t_nan"),
    pytest.param(lambda b: correlation_time_domain(b, INF), "t must be finite", id="corr_t_inf"),
])
def test_non_finite_argument_rejected(bath, call, message):
    # each guard is a positive condition, so NaN fails it; no warning, nan result or
    # untyped error comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            call(bath)


def test_integrated_cache_stays_small_over_a_trajectory(bath, monkeypatch):
    # 20 times up to past the split at 60 beta hold a handful of (xi, Xi) pairs, and
    # every t > t0 still reads the one cached t0 entry: one discretisation past t0
    import meanforce.bath as mb

    calls = []
    discretize = mb._discretize
    monkeypatch.setattr(mb, "_discretize", lambda *args: calls.append(args) or discretize(*args))
    mb._integrated_matrices_cached.cache_clear()
    try:
        for t in np.linspace(61.0, 80.0, 20):
            integrated_gamma_matrix(bath, (-1.0, 0.0, 1.0), t)
            integrated_S_matrix(bath, (-1.0, 0.0, 1.0), t)
        info = mb._integrated_matrices_cached.cache_info()
    finally:
        mb._integrated_matrices_cached.cache_clear()
    assert len(calls) == 1
    assert info.currsize <= 8
    assert (info.misses, info.hits) == (21, 20 + 19)
