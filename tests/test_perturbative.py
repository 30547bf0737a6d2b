import math

import numpy as np
import pytest

from meanforce.bath import OhmicBath, SpectralMeasure, as_measure
from meanforce.corrections import (
    build_upsilon_table,
    kossakowski_redfield,
    tls_diagonal_steady,
)
from meanforce.errors import DomainError, ValidationError
from meanforce.operators import bohr_decompose, pauli_coupling, spectral_decompose
from meanforce.perturbative import (
    alpha_weight,
    four_tuples,
    fourth_order_solve_tls,
    g22_coefficient,
    g40_tls,
    g40_tls_direct,
    second_order_residual,
)

W0 = 1.0
BETA = 1.0

APP_C_TUPLES_K0 = {
    (0.0, 0.0, 0.0, 0.0),
    (W0, -W0, 0.0, 0.0),
    (W0, 0.0, -W0, 0.0),
    (W0, 0.0, 0.0, -W0),
    (0.0, W0, -W0, 0.0),
    (0.0, W0, 0.0, -W0),
    (0.0, 0.0, W0, -W0),
    (W0, -W0, W0, -W0),
}


def table_accessors(bath, table):
    spec = kossakowski_redfield(bath)
    kmat = lambda w, wp: spec.K(0, 0, w, wp)
    dyn = lambda w, wp: spec.upsilon_dyn(0, 0, w, wp)
    st = lambda w, wp: table.entries.get((0, 0, w, wp), 0.0)
    return kmat, dyn, st


def tuple_sum(kmat, dyn, st, tuple_set, beta):
    """Reference sum of g22 over the tuples G(|k> -> |k>) of one anchor."""
    return sum(g22_coefficient(kmat, dyn, st, *t, beta) for t in tuple_set.tuples)


class TestAlphaWeight:
    def test_zero_frequency(self):
        assert alpha_weight(2.0, 0.0) == 2.0

    def test_unit_value(self):
        # (1 - e^{-1}) to 12 digits
        assert alpha_weight(1.0, 1.0) == pytest.approx(0.632120558829, abs=1e-12)

    def test_continuity_series_branch(self):
        assert alpha_weight(1.0, 1e-9) == pytest.approx(1.0 - 5e-10, abs=1e-15)

    def test_bad_beta(self):
        with pytest.raises(ValidationError):
            alpha_weight(0.0, 1.0)


class TestFourTuples:
    def test_tls_ground_anchor(self, tls_decomposition):
        ts = four_tuples(tls_decomposition.energies, 0)
        assert set(ts.tuples) == APP_C_TUPLES_K0
        assert ts.zero_sum_defect() == 0.0

    def test_tls_excited_anchor_is_sign_flipped(self, tls_decomposition):
        ts = four_tuples(tls_decomposition.energies, 1)
        flipped = {tuple(-x for x in t) for t in APP_C_TUPLES_K0}
        assert set(ts.tuples) == flipped

    def test_qutrit_zero_sums(self):
        rng = np.random.default_rng(5)
        energies = np.sort(rng.normal(size=3))
        ts = four_tuples(energies, 1)
        assert ts.zero_sum_defect() <= 1e-12

    def test_bad_anchor(self):
        with pytest.raises(ValidationError):
            four_tuples((0.0, 1.0), 5)


class TestG22:
    def test_seven_tuple_cancellation(self, bath, jumps, tls_decomposition):
        table = build_upsilon_table("steady_state", jumps, bath, equation="redfield")
        kmat, dyn, st = table_accessors(bath, table)
        vals = [g22_coefficient(kmat, dyn, st, *t, BETA)
                for t in four_tuples(tls_decomposition.energies, 0).tuples
                if t != (W0, -W0, W0, -W0)]
        scale = max(abs(v) for v in vals)
        assert abs(sum(vals)) <= 1e-10 * scale

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_seven_tuple_cancellation_other_temperatures(self, jumps, tls_decomposition, beta):
        bath = OhmicBath(beta=beta, coupling=1.0, cutoff=50.0 / beta)
        table = build_upsilon_table("steady_state", jumps, bath, equation="redfield")
        kmat, dyn, st = table_accessors(bath, table)
        vals = [g22_coefficient(kmat, dyn, st, *t, beta)
                for t in four_tuples(tls_decomposition.energies, 0).tuples
                if t != (W0, -W0, W0, -W0)]
        assert abs(sum(vals)) <= 1e-10 * max(abs(v) for v in vals)

    def test_eighth_tuple_closed_form(self, bath, jumps):
        # with arbitrary diagonal entries and a detailed-balanced K:
        # g22 = beta e^{-b w}(Y(-w,-w) - Y(w,w)) K(w,w)
        table = build_upsilon_table("steady_state", jumps, bath, equation="redfield")
        entries = dict(table.entries)
        entries[(0, 0, W0, W0)] = 0.31
        entries[(0, 0, -W0, -W0)] = -0.12
        kmat, dyn, _ = table_accessors(bath, table)
        st = lambda w, wp: entries.get((0, 0, w, wp), 0.0)
        val = g22_coefficient(kmat, dyn, st, W0, -W0, W0, -W0, BETA)
        expect = BETA * math.exp(-BETA * W0) * (-0.12 - 0.31) * kmat(W0, W0)
        assert val == pytest.approx(expect, rel=1e-10)

    def test_zero_table_gives_zero(self, bath, jumps):
        kmat, dyn, _ = table_accessors(bath, build_upsilon_table("steady_state", jumps, bath))
        st = lambda w, wp: 0.0
        assert g22_coefficient(kmat, dyn, st, W0, -W0, 0.0, 0.0, BETA) == 0.0

    def test_operator_level_reconstruction(self, h0, bath, jumps, tls_decomposition):
        # sum_g g22 rho0 A A A A reproduces L2[rho2] entrywise
        from meanforce.generators import _assemble, unvectorize, vectorize
        from meanforce.perturbative import _rho2_matrix

        table = build_upsilon_table("steady_state", jumps, bath, equation="redfield")
        spec = kossakowski_redfield(bath)
        kmat, dyn, st = table_accessors(bath, table)
        rho2, rho0m = _rho2_matrix(h0, jumps, table, BETA)
        truth = unvectorize(
            _assemble(jumps, *(x[0, 0] for x in spec.tables(1, jumps[0].frequencies))) @ vectorize(rho2))
        j = jumps[0]
        recon = np.zeros((2, 2), dtype=complex)
        for a1 in j.frequencies:
            for a2 in j.frequencies:
                for a3 in j.frequencies:
                    for a4 in j.frequencies:
                        g = g22_coefficient(kmat, dyn, st, a1, a2, a3, a4, BETA)
                        recon += g * (rho0m @ j.op(a1) @ j.op(a2) @ j.op(a3) @ j.op(a4))
        assert np.abs(recon - truth).max() <= 1e-11 * max(1.0, np.abs(truth).max())

    def test_gauge_invariance_of_tuple_sum(self, bath, jumps, tls_decomposition):
        # shifting all diagonal entries by a common constant cancels exactly
        table = build_upsilon_table("steady_state", jumps, bath, equation="cumulant")
        kmat, dyn, st = table_accessors(bath, table)
        ts = four_tuples(tls_decomposition.energies, 0)
        base = tuple_sum(kmat, dyn, st, ts, BETA)
        shift = 0.8

        def st_shifted(w, wp):
            return st(w, wp) + (shift if w == wp else 0.0)

        shifted = tuple_sum(kmat, dyn, st_shifted, ts, BETA)
        scale = max(abs(base), abs(shifted), 1.0)
        assert abs(shifted - base) <= 1e-12 * scale


class TestSecondOrderResidual:
    def test_coherence_table_cancels(self, h0, jumps, bath):
        spec = kossakowski_redfield(bath)
        table = build_upsilon_table("steady_state", jumps, bath, equation="redfield")
        assert second_order_residual(h0, jumps, bath, spec, table) <= 1e-8

    def test_zero_table_fails_to_cancel(self, h0, jumps, bath):
        from meanforce.operators import UpsilonTable

        spec = kossakowski_redfield(bath)
        freqs = jumps[0].frequencies
        zero = UpsilonTable("steady_state",
                            {(0, 0, w, wp): 0.0 for w in freqs for wp in freqs})
        assert second_order_residual(h0, jumps, bath, spec, zero) > 1e-3

    def test_pure_sigma_x_coupling_balances_by_detailed_balance(self, h0, bath):
        from meanforce.operators import UpsilonTable

        jumps_x = [bohr_decompose(spectral_decompose(h0), pauli_coupling(1.0, 0.0, 0.0))]
        spec = kossakowski_redfield(bath)
        freqs = jumps_x[0].frequencies
        zero = UpsilonTable("steady_state",
                            {(0, 0, w, wp): 0.0 for w in freqs for wp in freqs})
        # A(+w) A(-w) products vanish, so the zero table already balances
        assert second_order_residual(h0, jumps_x, bath, spec, zero, relative=False) <= 1e-10

    def test_missing_entries_rejected(self, h0, jumps, bath):
        from meanforce.operators import UpsilonTable

        spec = kossakowski_redfield(bath)
        with pytest.raises(ValidationError):
            second_order_residual(h0, jumps, bath, spec, UpsilonTable("steady_state", {}))


class TestG40:
    def test_balanced_atom_integrand_cancels(self):
        # symmetric test spectrum (equal atoms at +-w0, beta -> 0) makes
        # e^{-b w} gamma(w, s) = gamma(-w, s) hold identically, so the g40
        # integrand cancels pointwise
        from meanforce.perturbative import _GridCoefficients

        tiny = 1e-12
        measure = SpectralMeasure(beta=tiny, density=None,
                                  atoms=((W0, 0.8), (-W0, 0.8)), scale=W0, support=W0)
        coeffs = _GridCoefficients(measure, (-W0, W0), 6.0, 600)
        idx = np.arange(len(coeffs.grid))
        combo = math.exp(-tiny * W0) * coeffs.gamma_pair(W0, W0, idx) \
            - coeffs.gamma_pair(-W0, -W0, idx)
        assert np.abs(combo).max() <= 1e-10 * np.abs(coeffs.gamma_pair(W0, W0, idx)).max()

    @pytest.mark.parametrize("t_max", [3.0, 6.0])
    def test_grid_correlation_matches_quadpack(self, bath, t_max):
        # the grid's C(s) against the error-controlled QUADPACK cos/sin route
        from meanforce.bath import correlation_time_domain
        from meanforce.perturbative import _GridCoefficients

        n_steps = 60
        coeffs = _GridCoefficients(as_measure(bath), (W0,), t_max, n_steps)
        c0 = abs(correlation_time_domain(bath, 0.0))
        for idx in (0, 7, 31, n_steps):
            expect = correlation_time_domain(bath, coeffs.grid[idx])
            assert abs(coeffs.corr[idx] - expect) <= 1e-10 * c0

    def test_two_routes_agree(self, bath):
        closed = g40_tls(bath, W0)
        direct = g40_tls_direct(bath, W0, t_final=6.0, n_steps=1200)
        assert abs(direct - closed) <= 1e-4 * abs(closed)
        assert abs(direct.imag) <= 1e-6 * abs(closed)

    def test_odd_step_count_closes_with_trapezoid(self, bath):
        # n_steps = 1201 puts an even number of points on the grid: the last
        # prefix is odd and closes with one trapezoid panel
        odd = g40_tls_direct(bath, W0, t_final=6.0, n_steps=1201)
        even = g40_tls_direct(bath, W0, t_final=6.0, n_steps=1200)
        assert abs(odd - even) <= 1e-5 * abs(even)
        assert abs(odd - g40_tls(bath, W0)) <= 1e-4 * abs(even)

    def test_direct_route_converged_in_t(self, bath):
        d3 = g40_tls_direct(bath, W0, t_final=3.0, n_steps=600)
        d6 = g40_tls_direct(bath, W0, t_final=6.0, n_steps=1200)
        assert abs(d6 - d3) <= 2e-3 * abs(d6)

    def test_anchor_sign_relation(self, bath):
        # k=1 anchor equals the closed form with w0 -> -w0, and the two are
        # tied by g40(-w) = -e^{b w} g40(w)
        plus = g40_tls(bath, W0)
        minus = g40_tls(bath, -W0)
        assert minus == pytest.approx(-math.exp(BETA * W0) * plus, rel=1e-9)
        direct_excited = g40_tls_direct(bath, W0, t_final=6.0, n_steps=1200, anchor=1)
        assert direct_excited == pytest.approx(minus, rel=1e-4)

    def test_beta_mismatch_rejected(self, bath):
        with pytest.raises(ValidationError):
            g40_tls(bath, W0, beta=2.0)


class TestFourthOrderSolve:
    def test_redfield_diagonal_vanishes(self, bath):
        assert fourth_order_solve_tls(bath, W0, equation="redfield") == (0.0, -0.0)

    def test_cumulant_matches_closed_form(self, bath):
        solved = fourth_order_solve_tls(bath, W0, equation="cumulant")
        closed = tls_diagonal_steady(bath, W0, "cumulant")
        assert solved[0] == pytest.approx(closed[0], rel=1e-6)
        assert solved[1] == pytest.approx(closed[1], rel=1e-6)

    @pytest.mark.parametrize("bw0", [0.5, 1.0, 2.0])
    def test_mean_force_relation_across_temperatures(self, bath, bw0):
        from meanforce.bath import lamb_shift_S
        from meanforce.corrections import upsilon_mean_force

        plus, _ = fourth_order_solve_tls(bath, bw0, equation="cumulant")
        mf = upsilon_mean_force(bath, bw0, bw0, "kernel")
        assert mf == pytest.approx(plus + lamb_shift_S(bath, bw0), rel=1e-6)

    def test_no_dissipation_is_singular(self):
        silent = OhmicBath(beta=1.0, coupling=0.0, cutoff=50.0)
        with pytest.raises(DomainError):
            fourth_order_solve_tls(silent, W0, equation="cumulant")
