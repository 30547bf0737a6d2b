import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanforce import _quad, corrections
from meanforce import bath as bath_module
from meanforce._quad import QuadratureConfig
from meanforce.bath import DiscreteBath, OhmicBath, as_measure, bose_occupation, gamma_spectral, lamb_shift_S
from meanforce.corrections import (
    build_upsilon_table,
    guarnieri_sigma_x,
    kernel_D,
    kossakowski_custom,
    kossakowski_redfield,
    kossakowski_secular,
    tls_diagonal_steady,
    upsilon_dynamical,
    upsilon_mean_force,
    upsilon_steady_offdiag,
)
from meanforce.errors import (
    DetailedBalanceError,
    DomainError,
    NearDegenerateError,
    ValidationError,
)
from meanforce.operators import JumpDecomposition, assemble_correction, bohr_decompose, spectral_decompose
from meanforce.perturbative import second_order_residual
from meanforce.validation import (
    SWEEP_KINDS,
    SWEEP_NAMES,
    ReferenceCase,
    check_dual_form,
    check_steady_coherence_identities,
    qubit_sweep_point,
)


def kernel_D_mpmath(beta, w, wp, om):
    """Extended-precision evaluation of the textbook kernel, limits by mpmath."""
    with mpmath.workdps(50):
        b, w, wp, om = map(mpmath.mpf, (beta, w, wp, om))

        def formula(omega):
            return 1 / (wp - omega) - (w - wp) * (mpmath.e**(b * (w - omega)) - 1) / (
                (w - omega) * (wp - omega) * (mpmath.e**(b * (w - wp)) - 1))

        if om not in (w, wp) and w != wp:
            return float(formula(om))
        # removable points: numeric limit with tiny high-precision offsets
        eps = mpmath.mpf(10) ** -30
        if w == wp:
            def diag(omega):
                x = b * (w - omega)
                return (1 - mpmath.e**x + x) / (b * (w - omega) ** 2)
            return float(diag(om) if om != w else -b / 2)
        return float((formula(om + eps) + formula(om - eps)) / 2)


class TestKernelD:
    def test_triple_coincidence(self):
        assert kernel_D(1.0, 1.0, 1.0, 1.0) == pytest.approx(-0.5, abs=1e-14)
        assert kernel_D(2.5, 0.3, 0.3, 0.3) == pytest.approx(-1.25, abs=1e-13)

    def test_symmetry_example(self):
        assert kernel_D(1.0, 1.0, 2.0, 5.0) == pytest.approx(kernel_D(1.0, 2.0, 1.0, 5.0), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.floats(-2.0, 2.0), wp=st.floats(-2.0, 2.0), om=st.floats(-4.0, 4.0),
        beta=st.floats(0.2, 3.0),
    )
    def test_symmetry_property(self, w, wp, om, beta):
        a = kernel_D(beta, w, wp, om)
        b = kernel_D(beta, wp, w, om)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_two_sided_removable_limit(self):
        mid = kernel_D(1.0, 1.0, 2.0, 2.0)
        lo = kernel_D(1.0, 1.0, 2.0, 2.0 - 1e-6)
        hi = kernel_D(1.0, 1.0, 2.0, 2.0 + 1e-6)
        assert abs(lo - mid) <= 1e-6 * abs(mid)
        assert abs(hi - mid) <= 1e-6 * abs(mid)

    @pytest.mark.parametrize("args", [
        (1.0, 0.7, -0.3, 1.9),
        (0.5, 1.0, 1.0, 0.2),          # w = w' diagonal branch
        (2.0, 0.4, 1.1, 0.4),          # Omega = w removable
        (2.0, 0.4, 1.1, 1.1),          # Omega = w' removable
        (1.0, 0.4, 0.4 + 1e-7, 2.0),   # near-degenerate pair, series branch
        (1.0, 0.5, 1.5, 1.5 - 1e-7),   # just off the removable point
    ])
    def test_against_extended_precision(self, args):
        beta, w, wp, om = args
        expect = kernel_D_mpmath(beta, w, wp, om)
        assert kernel_D(beta, w, wp, om) == pytest.approx(expect, rel=1e-8, abs=1e-12)

    def test_bad_beta(self):
        with pytest.raises(ValidationError):
            kernel_D(-1.0, 0.0, 0.0, 0.0)


class TestMeanForce:
    def test_symmetry(self, bath):
        a = upsilon_mean_force(bath, 1.0, 2.0)
        b = upsilon_mean_force(bath, 2.0, 1.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_dual_representation(self, bath):
        k = upsilon_mean_force(bath, 1.0, -1.0, "kernel")
        s = upsilon_mean_force(bath, 1.0, -1.0, "S_form")
        assert abs(k - s) <= 1e-7 * max(1.0, abs(k))

    def test_discrete_single_mode_closed_form(self):
        bath = DiscreteBath(beta=1.3, modes=((2.2, 0.7),))
        n = bose_occupation(1.3, 2.2)
        w, wp = 0.9, -0.4
        expect = 0.49 * ((n + 1) * kernel_D(1.3, w, wp, 2.2) + n * kernel_D(1.3, w, wp, -2.2))
        assert upsilon_mean_force(bath, w, wp) == pytest.approx(expect, rel=1e-12)
        # atoms agree with the S-form route as well
        s_form = upsilon_mean_force(bath, w, wp, "S_form")
        assert s_form == pytest.approx(expect, rel=1e-10)

    def test_s_form_diagonal_rejected(self, bath):
        with pytest.raises(DomainError):
            upsilon_mean_force(bath, 1.0, 1.0, "S_form")

    def test_unknown_representation(self, bath):
        with pytest.raises(ValidationError):
            upsilon_mean_force(bath, 1.0, 0.0, "bogus")

    def test_real_for_single_coupling(self, bath):
        v = upsilon_mean_force(bath, 0.7, -1.3)
        assert abs(np.imag(v)) <= 1e-9 * abs(v)

    @pytest.mark.parametrize("check", [check_dual_form, check_steady_coherence_identities],
                             ids=["dual_form", "steady_coherences"])
    def test_s_form_checks_make_one_principal_value_call(self, monkeypatch, check):
        # each check reads S(w) over its grid's frequencies, closed under w -> -w, in one
        # batch; four scalar S(w) calls per pair made 31 one-pole batches in check_dual_form
        calls = []
        engine = bath_module.principal_value
        monkeypatch.setattr(bath_module, "principal_value", lambda *a, **k: calls.append(1) or engine(*a, **k))
        bath_module._lamb_shift_cached.cache_clear()
        check(ReferenceCase())
        assert len(calls) == 1


class TestDynamical:
    def test_diagonal_is_lamb_shift(self, bath):
        v = upsilon_dynamical(bath, 1.0, 1.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(lamb_shift_S(bath, 1.0), rel=1e-12)

    def test_imaginary_part(self, bath):
        from meanforce.bath import measure_value

        v = upsilon_dynamical(bath, 1.0, -1.0)
        expect = 0.25 * (measure_value(bath, 1.0) - measure_value(bath, -1.0))
        assert v.imag == pytest.approx(expect, rel=1e-12)
        assert v.imag != 0.0


class TestSteadyStateCoherences:
    def test_redfield_equals_mean_force(self, bath):
        spec = kossakowski_redfield(bath)
        for w, wp in [(1.0, -1.0), (0.5, 2.0), (2.0, 0.0), (-1.5, 0.7)]:
            st_v = upsilon_steady_offdiag(spec, bath, w, wp)
            mf = upsilon_mean_force(bath, w, wp, "S_form")
            assert abs(st_v - mf) <= 1e-7

    def test_secular_equals_dynamical(self, bath):
        spec = kossakowski_secular(bath)
        for w, wp in [(1.0, -1.0), (0.5, 2.0)]:
            st_v = upsilon_steady_offdiag(spec, bath, w, wp)
            assert abs(st_v - upsilon_dynamical(bath, w, wp)) <= 1e-10

    def test_diagonal_rejected(self, bath):
        with pytest.raises(DomainError):
            upsilon_steady_offdiag(kossakowski_redfield(bath), bath, 1.0, 1.0)

    def test_near_degenerate_rejected(self, bath):
        spec = kossakowski_redfield(bath)
        with pytest.raises(NearDegenerateError):
            upsilon_steady_offdiag(spec, bath, 1.0, 1.0 + 1e-15)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1)], ids=["pair_00", "pair_01"])
    def test_detailed_balance_precondition(self, bath, pair):
        # the skew sits on K_ab(w, w) of the coupling pair whose entry is asked for
        base = kossakowski_redfield(bath)
        bad = kossakowski_custom(
            1.0, lambda a, b, w, wp: base.K(a, b, w, wp) * (1.1 if w > 0 and (a, b) == pair else 1.0),
            base.upsilon_dyn)
        with pytest.raises(DetailedBalanceError):
            upsilon_steady_offdiag(bad, bath, 1.0, 0.0, *pair)

    def test_thermal_exponent_guard_names_first_offender(self):
        # the closed list is -400, -300.5, -1, 1, 300.5, 400: -400 comes first
        zero = kossakowski_custom(1.0, lambda a, b, w, wp: 0.0, lambda a, b, w, wp: 0.0)
        with pytest.raises(DomainError, match=r"beta\*w = -400 out of supported range"):
            zero.check_detailed_balance([1.0, 300.5, 400.0])
        zero.check_detailed_balance([1.0, 299.5])


class TestTlsDiagonal:
    def test_redfield_gauge_zero(self, bath):
        assert tls_diagonal_steady(bath, 1.0, "redfield") == (0.0, 0.0)

    @pytest.mark.parametrize("bw0", [0.5, 1.0, 2.0])
    def test_cumulant_matches_mean_force_minus_lamb_shift(self, bath, bw0):
        plus, minus = tls_diagonal_steady(bath, bw0, "cumulant")
        for w, val in ((bw0, plus), (-bw0, minus)):
            mf = upsilon_mean_force(bath, w, w, "kernel")
            expect = mf - lamb_shift_S(bath, w)
            assert val == pytest.approx(expect, rel=1e-6)

    def test_thermal_covariance_and_sign_flip(self, bath):
        plus, minus = tls_diagonal_steady(bath, 1.0, "cumulant")
        assert minus == pytest.approx(-math.exp(-1.0) * plus, rel=1e-9)
        # high-temperature limit: antisymmetric under w0 -> -w0
        hot = gamma_spectral(type(bath)(beta=1e-3, coupling=1.0, cutoff=50.0))
        p, m = tls_diagonal_steady(hot, 1.0, "cumulant")
        assert m == pytest.approx(-p, rel=2e-3)

    def test_bad_inputs(self, bath):
        with pytest.raises(ValidationError):
            tls_diagonal_steady(bath, -1.0, "redfield")
        with pytest.raises(ValidationError):
            tls_diagonal_steady(bath, 1.0, "bogus")


class TestGuarnieriSigmaX:
    def test_zero_prefactors(self, bath):
        assert guarnieri_sigma_x(bath, 1.0, 0.1, 0.0, 0.8) == 0.0
        assert guarnieri_sigma_x(bath, 1.0, 0.1, 0.5, 0.0) == 0.0

    def test_antisymmetry(self, bath):
        a = guarnieri_sigma_x(bath, 1.0, 0.05, 0.6, 0.8)
        b = guarnieri_sigma_x(bath, 1.0, 0.05, -0.6, 0.8)
        assert b == pytest.approx(-a, rel=1e-10)

    def test_against_mean_force_gibbs(self, bath):
        # the quoted formula lives in the excited-first basis ordering; in the
        # ground-first convention used here the same physical system has
        # couplings (x, y, z) = (f2, 0, -f1)
        from meanforce.generators import thermal_state
        from meanforce.operators import SIGMA_X, pauli_coupling, tls_hamiltonian

        f1, f2, lam, w0 = 0.6, 0.8, 1e-2, 1.0
        h0 = tls_hamiltonian(w0)
        jumps = [bohr_decompose(spectral_decompose(h0), pauli_coupling(f2, 0.0, -f1))]
        hmf = assemble_correction(build_upsilon_table("mean_force", jumps, bath), jumps)
        rho = thermal_state(h0 + lam**2 * hmf, 1.0)
        oracle = np.trace(SIGMA_X @ rho).real
        val = guarnieri_sigma_x(bath, w0, lam, f1, f2)
        assert val == pytest.approx(oracle, rel=1e-4)

    def test_requires_ohmic(self):
        with pytest.raises(ValidationError):
            guarnieri_sigma_x(DiscreteBath(beta=1.0, modes=((2.0, 0.1),)), 1.0, 0.1, 1.0, 1.0)


class TestUpsilonTables:
    def test_steady_state_table_diag_conventions(self, jumps, bath):
        red = build_upsilon_table("steady_state", jumps, bath, equation="redfield")
        assert red.entries[(0, 0, 1.0, 1.0)] == 0.0
        assert red.entries[(0, 0, 0.0, 0.0)] == 0.0
        cum = build_upsilon_table("steady_state", jumps, bath, equation="cumulant")
        plus, minus = tls_diagonal_steady(bath, 1.0, "cumulant")
        assert cum.entries[(0, 0, 1.0, 1.0)] == pytest.approx(plus, rel=1e-12)
        assert cum.entries[(0, 0, -1.0, -1.0)] == pytest.approx(minus, rel=1e-12)
        assert cum.entries[(0, 0, 0.0, 0.0)] == 0.0

    def test_cumulant_diag_refused_beyond_tls(self, bath):
        from meanforce.operators import bohr_decompose, spectral_decompose

        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = 0.5 * (a + a.conj().T)
        s = 0.5 * (a @ a.conj().T + (a @ a.conj().T).conj().T)
        jq = [bohr_decompose(spectral_decompose(h), s)]
        with pytest.raises(NotImplementedError):
            build_upsilon_table("steady_state", jq, bath, equation="cumulant")

    @pytest.mark.parametrize("equation", ["redfield", "cumulant"])
    def test_pure_dephasing_qubit(self, tls_decomposition, bath, equation):
        # sigma_z has the one Bohr frequency 0, so the steady table is the gauge zero
        # and the cumulant diagonal solve (which needs w0 > 0) has nothing to fill
        from meanforce.operators import SIGMA_Z

        jumps = [bohr_decompose(tls_decomposition, SIGMA_Z)]
        assert jumps[0].frequencies == (0.0,)
        table = build_upsilon_table("steady_state", jumps, bath, equation=equation)
        assert table.entries == {(0, 0, 0.0, 0.0): 0}

    def test_cross_bath_couplings_vanish(self, tls_decomposition):
        from meanforce.bath import OhmicBath
        from meanforce.operators import SIGMA_X, SIGMA_Z, bohr_decompose

        j1 = bohr_decompose(tls_decomposition, SIGMA_X, index=0)
        j2 = bohr_decompose(tls_decomposition, SIGMA_Z, index=1)
        b1 = OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0)
        b2 = OhmicBath(beta=1.0, coupling=0.5, cutoff=20.0)
        table = build_upsilon_table("dynamical", [j1, j2], [b1, b2])
        assert all(a == b for (a, b, _, _) in table.entries)
        shared = build_upsilon_table("dynamical", [j1, j2], [b1, b1])
        assert any(a != b for (a, b, _, _) in shared.entries)
        shared.validate_pairing()


TABLE_KINDS = ("mean_force", "dynamical", "steady_state")


def _two_baths(bath, second):
    """The same bath twice, or a second bath object of equal parameters (an independent bath)."""
    return [bath, bath if second == "same" else OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0)]


def _per_bath_loop_tables(spec, n, freqs):
    """The reference `KossakowskiSpec.tables`: its own per-bath loop in the (a, b, w, w') layout,
    one rule call per distinct bath over the given list, or one custom call per entry."""
    shape = (2, n, n, len(freqs), len(freqs))
    if spec.baths is None:
        grid = itertools.product(range(n), range(n), freqs, freqs)
        return np.array([[f(*key) for f in spec.rule] for key in grid], dtype=complex).T.reshape(shape)
    owner = spec.baths * n if len(spec.baths) == 1 else spec.baths[:n]
    out = np.zeros(shape, dtype=complex)
    for bath in {id(b): b for b in owner}.values():
        on = np.array([b is bath for b in owner])
        out[:, on[:, None] & on] = np.asarray(spec.rule(as_measure(bath), tuple(freqs)))[:, None]
    if spec.kind == "secular":
        out[0] *= np.equal.outer(freqs, freqs)
    return out


class TestStackedTables:
    """Two couplings with different frequency sets on a d=3 system: each bath is
    tabulated once over the union of its couplings' Bohr frequencies."""

    @pytest.mark.parametrize("second, sizes", [("same", (36, 36, 34)), ("other", (18, 18, 18))])
    def test_key_counts(self, two_on_one_bath, second, sizes):
        _, jumps, bath = two_on_one_bath
        baths = _two_baths(bath, second)
        assert tuple(len(build_upsilon_table(k, jumps, baths).entries) for k in TABLE_KINDS) == sizes

    def test_entries_equal_public_functions(self, two_on_one_bath):
        _, jumps, bath = two_on_one_bath
        spec = kossakowski_redfield([bath, bath])
        per_entry = {
            "mean_force": lambda a, b, w, wp: upsilon_mean_force(bath, w, wp),
            "dynamical": lambda a, b, w, wp: upsilon_dynamical(bath, w, wp),
            "steady_state": lambda a, b, w, wp:
                0.0 if w == wp else upsilon_steady_offdiag(spec, bath, w, wp, a, b),
        }
        for kind, value in per_entry.items():
            for key, v in build_upsilon_table(kind, jumps, [bath, bath]).entries.items():
                assert v == value(*key), (kind, key)

    @pytest.mark.parametrize("second", ["same", "other"])
    @pytest.mark.parametrize("kind", ["redfield", "secular", "custom"])
    def test_spec_tables_equal_per_bath_loop(self, two_on_one_bath, kind, second):
        # the stacked tabulation gives the bits of the per-bath loop, also for an unsorted
        # list with a repeated frequency; a custom spec calls each callable once per entry
        _, jumps, bath = two_on_one_bath
        baths = _two_baths(bath, second)
        spec = (kossakowski_secular if kind == "secular" else kossakowski_redfield)(baths)
        calls = []
        if kind == "custom":
            spec = kossakowski_custom(bath.beta, *(
                lambda a, b, w, wp, f=f: calls.append(f) or complex(a + 2 * b + w, f * wp) for f in (1.0, -1.0)))
        union = sorted({w for j in jumps for w in j.frequencies})
        for freqs in (union, union[::-1] + union[1:2]):
            calls.clear()
            tables = spec.tables(2, freqs)
            assert len(calls) == (2 * (2 * len(freqs)) ** 2 if kind == "custom" else 0)
            assert np.array_equal(tables, _per_bath_loop_tables(spec, 2, freqs))

    @pytest.mark.parametrize("second, n_calls", [("same", 25), ("other", 18)])
    def test_mean_force_integrals_per_union_entry(self, two_on_one_bath, monkeypatch, second, n_calls):
        # one bath: 5 union frequencies, 25 integrals for the 36 entries, in one batch per bath
        _, jumps, bath = two_on_one_bath
        batches = []
        engine = corrections._mean_force_kernel
        monkeypatch.setattr(corrections, "_mean_force_kernel",
                            lambda m, w, wp, config: batches.append(len(w)) or engine(m, w, wp, config))
        build_upsilon_table("mean_force", jumps, _two_baths(bath, second))
        assert sum(batches) == n_calls
        assert len(batches) == (1 if second == "same" else 2)

    @pytest.mark.parametrize("kind, equation, error", [
        ("lamb_shift", "redfield", ValidationError),
        ("steady_state", "lindblad", ValidationError),
        ("mean_force", "lindblad", ValidationError),
        ("steady_state", "cumulant", NotImplementedError),
    ])
    def test_arguments_checked_before_any_integral(self, two_on_one_bath, monkeypatch, kind, equation, error):
        _, jumps, bath = two_on_one_bath
        calls = []
        engine = _quad.adaptive_quad

        def counted(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        for module in (_quad, bath_module, corrections):
            monkeypatch.setattr(module, "adaptive_quad", counted)
        bath_module._lamb_shift_cached.cache_clear()  # a cached S(w) would hide its integral
        with pytest.raises(error):
            build_upsilon_table(kind, jumps, bath, equation)
        assert calls == []


def _count_pairs(monkeypatch):
    """Record every redfield_pair_matrices call, also those of the per-entry bath functions."""
    calls = []
    engine = bath_module.redfield_pair_matrices

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    for module in (bath_module, corrections):
        monkeypatch.setattr(module, "redfield_pair_matrices", counted)
    return calls


def _sweep_per_entry(bath, w0, gamma_c):
    """qubit_sweep_point's dyn and st_* values that do not involve the mean force or the
    cumulant diagonal, from upsilon_dynamical and upsilon_steady_offdiag per entry."""
    spec = kossakowski_redfield(bath)
    norm = bath.beta / gamma_c
    dyn_off = upsilon_dynamical(bath, 0.0, -w0) - upsilon_dynamical(bath, w0, 0.0)
    dyn_diag = upsilon_dynamical(bath, w0, w0) - upsilon_dynamical(bath, -w0, -w0)
    st_off = upsilon_steady_offdiag(spec, bath, 0.0, -w0) - upsilon_steady_offdiag(spec, bath, w0, 0.0)
    out = {("dyn", "diag_diff"): float(np.real(dyn_diag)) * norm}
    for kind, off in (("dyn", dyn_off), ("st_redfield", st_off), ("st_cumulant", st_off)):
        out[(kind, "offdiag_re")] = float(np.real(off)) * norm
        out[(kind, "offdiag_im")] = float(np.imag(off)) * norm
    return out


class TestLongTimePair:
    """The steady-state table and the qubit sweep read K and Y_dyn off one long-time
    Redfield pair per bath, with the bits of the per-entry functions."""

    @pytest.mark.parametrize("second, n_calls", [("same", 1), ("other", 2)])
    def test_steady_table_one_pair_per_bath(self, two_on_one_bath, monkeypatch, second, n_calls):
        _, jumps, bath = two_on_one_bath
        calls = _count_pairs(monkeypatch)
        build_upsilon_table("steady_state", jumps, _two_baths(bath, second))
        assert len(calls) == n_calls

    def test_sweep_one_pair(self, bath, monkeypatch):
        # a whole sweep reads one long-time pair, over the union of its (-w0, 0, w0)
        calls = []
        engine = corrections._long_time_pair
        monkeypatch.setattr(corrections, "_long_time_pair",
                            lambda m, freqs, config: calls.append(freqs) or engine(m, freqs, config))
        qubit_sweep_point(bath, [0.5, 1.0, 2.0], 1.0)
        assert calls == [[-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]]

    @pytest.mark.parametrize("bw0", [0.1, 1.3, 4.2])
    def test_sweep_point_equals_per_entry_functions(self, bath, bw0):
        w0 = bw0 / bath.beta
        values, failures = qubit_sweep_point(bath, [w0], 0.7)
        assert failures == [None]
        for (kind, name), value in _sweep_per_entry(bath, w0, 0.7).items():
            assert values[0, SWEEP_KINDS.index(kind), SWEEP_NAMES.index(name)] == value, (kind, name)

    def test_frequencies_not_closed_under_negation(self, bath):
        # Bohr frequencies (0, 1) without -1: the coherence formula reads K at -1
        ops = {0.0: np.diag([1.0, -1.0]).astype(complex), 1.0: np.array([[0, 1], [0, 0]], dtype=complex)}
        jumps = [JumpDecomposition(0, (0.0, 1.0), ops)]
        spec = kossakowski_redfield(bath)
        expect = {(0, 0, w, wp): 0.0 if w == wp else upsilon_steady_offdiag(spec, bath, w, wp)
                  for w in (0.0, 1.0) for wp in (0.0, 1.0)}
        assert build_upsilon_table("steady_state", jumps, bath).entries == expect


def _haar_jumps(rng, ladder, unit=False):
    """H0 with a Haar-random eigenbasis and the levels `ladder` jittered by at most 0.05,
    and a random Hermitian coupling (of spectral norm 1 when `unit`), as jumps."""
    d = len(ladder)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    h0 = (u * (np.asarray(ladder) + rng.uniform(-0.05, 0.05, d))) @ u.conj().T
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = 0.5 * (b + b.conj().T)
    if unit:
        a /= np.linalg.norm(a, 2)
    return [bohr_decompose(spectral_decompose(0.5 * (h0 + h0.conj().T)), a)]


def _seeded_d4(seed):
    """The seeded d = 4 system: levels (-1.7, -1, 0.2, 1.7), 13 Bohr frequencies."""
    return _haar_jumps(np.random.default_rng(seed), [-1.7, -1.0, 0.2, 1.7])


def _seeded_many_level(d):
    """The seeded many-level system of ROADMAP.md: levels linspace(-1.7, 1.7, d), a unit
    coupling, seed 1234 + d (57 Bohr frequencies at d = 8)."""
    return _haar_jumps(np.random.default_rng(1234 + d), np.linspace(-1.7, 1.7, d), unit=True)


def _check_mean_force_table(jumps, bath):
    """The mean-force table is symmetric in (w, w') to 1e-12 of its largest entry, passes
    `validate_pairing` and assembles to a Hermitian H_mf."""
    table = build_upsilon_table("mean_force", jumps, bath)
    y = table.entries
    scale = max(abs(v) for v in y.values())
    assert max(abs(v - y[(a, b, wp, w)]) for (a, b, w, wp), v in y.items()) <= 1e-12 * scale
    table.validate_pairing()
    assemble_correction(table, jumps)


def _claim_two_gap(jumps, baths):
    """max over w != w' of |Y_st - Y_mf| for the Redfield steady table, over max |Y_mf|,
    at the default tolerances."""
    mf = build_upsilon_table("mean_force", jumps, baths).entries
    st = build_upsilon_table("steady_state", jumps, baths).entries
    coherences = sorted(k for k in st if k[2] != k[3])
    assert coherences == sorted(k for k in mf if k[2] != k[3])
    return max(abs(st[k] - mf[k]) for k in coherences) / max(abs(v) for v in mf.values())


class TestClaimTwoTables:
    """Claim (ii) on whole tables: every Bloch-Redfield steady coherence equals the
    mean-force entry (Cresser & Anders, PRL 127, 250601 (2021))."""

    @pytest.mark.parametrize("second", ["same", "other"])
    def test_two_couplings(self, two_on_one_bath, second):
        _, jumps, bath = two_on_one_bath
        assert _claim_two_gap(jumps, _two_baths(bath, second)) <= 1e-8  # 3.2e-11 on one bath

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_d4(self, bath, seed):
        assert _claim_two_gap(_seeded_d4(seed), bath) <= 1e-8


def _random_system(d, seed):
    """A seeded random Hermitian H0 and coupling of dimension d, as (H0, jumps)."""
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
    h0 = 0.5 * (a + a.conj().T)
    return h0, [bohr_decompose(spectral_decompose(h0), 0.5 * (b + b.conj().T))]


class TestRandomSystems:
    """Invariants of the Kossakowski specs and the steady-state table on seeded random
    systems of dimension 2 to 4."""

    @pytest.fixture(params=[(d, seed) for d in (2, 3, 4) for seed in (0, 1)],
                    ids=lambda p: f"d{p[0]}-seed{p[1]}")
    def system(self, request):
        return _random_system(*request.param)

    def test_steady_table_equals_per_entry_function(self, bath, system):
        _, jumps = system
        spec = kossakowski_redfield(bath)
        for (a, b, w, wp), v in build_upsilon_table("steady_state", jumps, bath).entries.items():
            assert v == (0.0 if w == wp else upsilon_steady_offdiag(spec, bath, w, wp, a, b)), (w, wp)

    def test_redfield_table_cancels_the_source(self, bath, system):
        h0, jumps = system
        table = build_upsilon_table("steady_state", jumps, bath)
        assert second_order_residual(h0, jumps, bath, kossakowski_redfield(bath), table) <= 1e-8

    def test_secular_coherences_equal_dynamical(self, bath, system):
        _, jumps = system
        spec = kossakowski_secular(bath)
        freqs = jumps[0].frequencies
        for w, wp in ((w, wp) for w in freqs for wp in freqs if w != wp):
            assert abs(upsilon_steady_offdiag(spec, bath, w, wp) - upsilon_dynamical(bath, w, wp)) <= 1e-10

    def test_mean_force_table_symmetric_and_assembles(self, bath, system):
        _check_mean_force_table(system[1], bath)  # worst asymmetry 1.1e-13 of max|Y|, d3-seed1

    def test_one_skewed_diagonal_entry_rejected(self, bath, system):
        _, jumps = system
        base = kossakowski_redfield(bath)
        w = max(jumps[0].frequencies)
        bad = kossakowski_custom(
            bath.beta, lambda a, b, x, y: base.K(a, b, x, y) * (1.1 if x == y == w else 1.0), base.upsilon_dyn)
        with pytest.raises(DetailedBalanceError, match=f"K\\(0,0;{w:g},{w:g}\\)"):
            upsilon_steady_offdiag(bad, bath, w, min(jumps[0].frequencies))
        with pytest.raises(DetailedBalanceError):
            bad.check_detailed_balance(jumps[0].frequencies)


@pytest.mark.parametrize("d", [8, 12], ids=lambda d: f"d{d}")
def test_mean_force_table_seeded(bath, d):
    # the same checks on the seeded d = 8 and 12 systems, and every entry within 1e-8 of
    # the kernel at tight tolerances; an interval edge at |w'| alone stopped entries early
    # there (defect D9: 4.2e-7 and 1.6e-6 relative, asymmetry 2.0e-7 and 7.5e-7)
    jumps = _seeded_many_level(d)
    tight = build_upsilon_table("mean_force", jumps, bath,
                                config=QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13, limit=4000)).entries
    y = build_upsilon_table("mean_force", jumps, bath).entries
    assert max(abs(y[k] - v) / abs(v) for k, v in tight.items()) <= 1e-8
    _check_mean_force_table(jumps, bath)
