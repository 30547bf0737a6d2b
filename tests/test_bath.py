from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from meanforce._quad import panel_nodes, phi_diff_quotient, phi_kernel, principal_value
from meanforce.bath import (
    DiscreteBath,
    OhmicBath,
    SpectralMeasure,
    S_finite_time,
    _discretize,
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
from meanforce.errors import PoleError, ValidationError


def panel_quad(f, lo, hi, osc_freq, structure_scale):
    """Reference integral of a vectorised (possibly complex) f on the panel grid."""
    nodes, weights = panel_nodes(lo, hi, osc_freq, structure_scale)
    return np.sum(weights * f(nodes))


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
    """PV int_lo^hi dx / (p - x) = ln((p - lo) / (hi - p)), whatever the window."""

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    @pytest.mark.parametrize("pole", [-1.0 + 3e-3, 0.7, 2.0 - 3e-3])
    def test_reciprocal_against_log(self, pole, scale):
        lo, hi = -1.0, 2.0
        value = principal_value(lambda x: 1.0 / (pole - np.asarray(x)), pole, lo, hi, scale)
        expect = np.log((pole - lo) / (hi - pole))
        assert abs(value - expect) <= 1e-12 * abs(expect)

    @pytest.mark.parametrize("pole", [-1.0, 2.0, 3.0])
    def test_pole_outside_domain_rejected(self, pole):
        with pytest.raises(ValidationError):
            principal_value(lambda x: 1.0 / (pole - x), pole, -1.0, 2.0, 1.0)


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
        xi = np.einsum("n,ni,nj->ij", c, phi, phi.conj())
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

    def test_one_difference_quotient_per_entry(self, bath, monkeypatch):
        import meanforce.bath as mb

        calls = []
        quotient = mb.phi_diff_quotient
        monkeypatch.setattr(mb, "phi_diff_quotient", lambda *args: calls.append(1) or quotient(*args))
        mb._integrated_matrices_cached.cache_clear()
        freqs = (-1.0, 0.0, 0.7, 1.0)
        integrated_S_matrix(bath, freqs, 2.0)
        assert len(calls) == len(freqs) ** 2

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
