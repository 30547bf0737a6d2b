import numpy as np
import pytest
from scipy.linalg import expm

from meanforce.bath import DiscreteBath, OhmicBath
from meanforce.corrections import build_upsilon_table
from meanforce.errors import DegenerateSteadyStateError, ValidationError
from meanforce.generators import (
    Superoperator,
    build_cumulant_exponent,
    build_davies_generator,
    build_redfield_generator,
    choi_matrix,
    commutator_superop,
    cumulant_map,
    interaction_redfield_generator,
    propagate,
    steady_state_of_generator,
    thermal_state,
    unvectorize,
    vectorize,
)
from meanforce.operators import assemble_correction, bohr_decompose, pauli_coupling, spectral_decompose
from meanforce.oracle import scaling_exponent

LAM = 0.05


class TestVectorisation:
    def test_column_stacking_round_trip(self):
        rho = np.array([[1.0, 2.0 + 1j], [3.0 - 2j, 4.0]])
        v = vectorize(rho)
        # column stacking: (rho00, rho10, rho01, rho11)
        assert np.allclose(v, [1.0, 3.0 - 2j, 2.0 + 1j, 4.0])
        assert np.allclose(unvectorize(v), rho)

    def test_sandwich_convention(self):
        rng = np.random.default_rng(1)
        a, b, rho = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        from meanforce.generators import _sandwich

        lhs = unvectorize(_sandwich(a, b) @ vectorize(rho))
        assert np.allclose(lhs, a @ rho @ b)


class TestRedfieldGenerator:
    def test_free_spectrum_at_zero_coupling(self, h0, jumps, bath):
        gen = build_redfield_generator(h0, jumps, bath, 0.0)
        ev = np.sort_complex(np.linalg.eigvals(gen.matrix))
        assert np.allclose(ev, [-1j, 0.0, 0.0, 1j], atol=1e-12)

    def test_trace_preservation(self, h0, jumps, bath):
        gen = build_redfield_generator(h0, jumps, bath, LAM)
        assert gen.trace_defect() <= 1e-12 * np.linalg.norm(gen.matrix)

    def test_negative_coupling_rejected(self, h0, jumps, bath):
        with pytest.raises(ValidationError):
            build_redfield_generator(h0, jumps, bath, -0.1)

    def test_steady_coherence_matches_perturbative_gibbs(self, h0, jumps, bath):
        table = build_upsilon_table("steady_state", jumps, bath, equation="redfield")
        hst = assemble_correction(table, jumps)
        diffs = []
        lams = [0.1, 0.05, 0.02]
        for lam in lams:
            gen = build_redfield_generator(h0, jumps, bath, lam)
            num = steady_state_of_generator(gen)
            ana = thermal_state(h0 + lam**2 * hst, 1.0)
            diffs.append(abs(num[0, 1] - ana[0, 1]))
        slope = scaling_exponent(lams, diffs)
        assert slope == pytest.approx(4.0, abs=0.35)


class TestDaviesGenerator:
    def test_steady_state_is_bare_gibbs(self, h0, jumps, bath):
        gen = build_davies_generator(h0, jumps, bath, LAM)
        rho = steady_state_of_generator(gen)
        assert np.abs(rho - thermal_state(h0, 1.0)).max() <= 1e-10

    def test_secular_kossakowski_psd(self, h0, jumps, bath):
        # 1x1 blocks gamma(w) >= 0; the builder performs the check internally
        build_davies_generator(h0, jumps, bath, LAM)
        from meanforce.bath import measure_value

        for w in jumps[0].frequencies:
            assert measure_value(bath, w) >= -1e-12

    def test_coherence_decays_monotonically(self, h0, jumps, bath):
        gen = build_davies_generator(h0, jumps, bath, LAM)
        rho = np.eye(2, dtype=complex) / 2 + np.array([[0, 0.25], [0.25, 0]])
        mags = []
        for t in (0.0, 20.0, 40.0, 80.0, 160.0):
            out = propagate(gen, rho, t)
            mags.append(abs(out[0, 1]))
        assert all(a > b for a, b in zip(mags, mags[1:]))


class TestCumulant:
    def test_zero_time_identity_map(self, h0, jumps, bath):
        k = build_cumulant_exponent(h0, jumps, bath, LAM, 0.0)
        assert np.abs(k.matrix).max() == 0.0
        m = cumulant_map(h0, jumps, bath, LAM, 0.0)
        assert np.allclose(m.matrix, np.eye(4))

    def test_exponent_derivative_is_interaction_redfield(self, h0, jumps, bath):
        lam, t, h = 0.02, 2.0, 1e-4
        kp = build_cumulant_exponent(h0, jumps, bath, lam, t + h).matrix
        km = build_cumulant_exponent(h0, jumps, bath, lam, t - h).matrix
        li = interaction_redfield_generator(jumps, bath, lam, t).matrix
        assert np.linalg.norm((kp - km) / (2 * h) - li) <= 1e-6

    def test_propagation_cptp(self, h0, jumps, bath, rho0):
        out = propagate(cumulant_map(h0, jumps, bath, LAM, 10.0), rho0)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        herm = 0.5 * (out + out.conj().T)
        assert np.abs(out - herm).max() <= 1e-12
        assert np.linalg.eigvalsh(herm).min() >= -1e-10

    def test_map_tracks_time_ordered_redfield(self, h0, jumps, bath, rho0):
        # independent oracle: RK4 on the time-dependent Redfield equation
        lam, t, dt = 0.05, 4.0, 0.005
        gens = {}

        def gen_at(s):
            key = round(s, 10)
            if key not in gens:
                gens[key] = build_redfield_generator(h0, jumps, bath, lam, t=key).matrix
            return gens[key]

        v = vectorize(rho0)
        for k in range(int(round(t / dt))):
            s = k * dt
            k1 = gen_at(s) @ v
            k2 = gen_at(s + dt / 2) @ (v + dt / 2 * k1)
            k3 = gen_at(s + dt / 2) @ (v + dt / 2 * k2)
            k4 = gen_at(s + dt) @ (v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        oracle = unvectorize(v)
        out = propagate(cumulant_map(h0, jumps, bath, lam, t), rho0)
        assert np.abs(out - oracle).max() <= 5e-4


class TestPropagate:
    def test_zero_time_returns_input(self, h0, jumps, bath, rho0):
        gen = build_redfield_generator(h0, jumps, bath, LAM)
        assert np.allclose(propagate(gen, rho0, 0.0), rho0)

    def test_davies_long_time_reaches_gibbs(self, h0, jumps, bath):
        gen = build_davies_generator(h0, jumps, bath, 0.1)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = propagate(gen, plus, 3000.0)
        assert np.abs(out - thermal_state(h0, 1.0)).max() <= 1e-8

    def test_invalid_state_rejected(self, h0, jumps, bath):
        gen = build_redfield_generator(h0, jumps, bath, LAM)
        with pytest.raises(ValidationError):
            propagate(gen, np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)  # trace 2
        with pytest.raises(ValidationError):
            propagate(gen, np.array([[1.0, 1.0], [0.0, 0.0]]), 1.0)  # not hermitian


class TestChoi:
    def test_identity_map(self):
        ident = Superoperator(2, np.eye(4, dtype=complex))
        c = choi_matrix(ident)
        ev = np.sort(np.linalg.eigvalsh(c))
        assert np.allclose(ev, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_matches_defining_sum(self):
        d = 3
        rng = np.random.default_rng(7)
        m = Superoperator(d, rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))
        c = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                c += np.kron(unit, m.apply(unit))
        assert np.array_equal(choi_matrix(m), 0.5 * (c + c.conj().T))

    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_cumulant_map_is_cp(self, h0, jumps, bath, t):
        m = cumulant_map(h0, jumps, bath, LAM, t)
        assert np.linalg.eigvalsh(choi_matrix(m)).min() >= -1e-10

    def test_redfield_scan_exhibits_cp_violation(self, h0, bath):
        # no canonical parameter point exists; scan and require at least one violation
        worst = 0.0
        report = []
        for x, z in ((1 / np.sqrt(2), 1 / np.sqrt(2)), (1.0, 0.0)):
            jumps_l = [bohr_decompose(spectral_decompose(h0), pauli_coupling(x, 0.0, z))]
            for lam in (0.2, 0.5):
                gen = build_redfield_generator(h0, jumps_l, bath, lam)
                for t in (0.05, 0.2, 1.0):
                    m = Superoperator(2, expm(gen.matrix * t))
                    low = np.linalg.eigvalsh(choi_matrix(m)).min()
                    report.append(low)
                    worst = min(worst, low)
        assert worst < -1e-8, f"no CP violation found in scan: {report}"


class TestSteadyState:
    def test_degenerate_null_space_rejected(self, h0, jumps, bath):
        gen = build_redfield_generator(h0, jumps, bath, 0.0)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state_of_generator(gen)

    def test_unit_trace_hermitian(self, h0, jumps, bath):
        rho = steady_state_of_generator(build_redfield_generator(h0, jumps, bath, LAM))
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() <= 1e-12

    def test_headline_coherence_dominates_davies(self, h0, jumps, bath, rho0):
        # cumulant coherence at a long but finite time stays well above the
        # Davies fixed-point coherence, which is exactly zero
        davies = steady_state_of_generator(build_davies_generator(h0, jumps, bath, LAM))
        gen = build_redfield_generator(h0, jumps, bath, LAM)
        ev = np.linalg.eigvals(gen.matrix)
        gap = -max(e.real for e in ev if e.real < -1e-13)
        rho_c = propagate(cumulant_map(h0, jumps, bath, LAM, 10.0 / gap), rho0)
        assert abs(davies[0, 1]) <= 1e-14
        assert abs(rho_c[0, 1]) > 10.0 * abs(davies[0, 1])
        assert abs(rho_c[0, 1]) > 1e-5


class TestThermalState:
    @staticmethod
    def complex_route(h, beta):
        vals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
        w = np.exp(-beta * (vals - vals.min()))
        return (vecs * w) @ vecs.conj().T / w.sum()

    def test_real_hamiltonian_takes_real_eigh(self, monkeypatch):
        a = np.random.default_rng(5).normal(size=(6, 6))
        h = (0.5 * (a + a.T)).astype(complex)  # complex dtype, no imaginary part
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: seen.append(m.dtype) or eigh(m))
        rho = thermal_state(h, 0.7)
        assert seen == [np.float64]
        assert rho.dtype == np.complex128
        assert np.abs(rho - self.complex_route(h, 0.7)).max() <= 1e-14
        assert np.abs(rho - expm(-0.7 * h) / np.trace(expm(-0.7 * h))).max() <= 1e-14

    def test_complex_hamiltonian_keeps_complex_eigh(self):
        h = _random_hermitian(np.random.default_rng(6), 4)
        assert np.abs(thermal_state(h, 0.7) - self.complex_route(h, 0.7)).max() <= 1e-14


def _random_hermitian(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (z + z.conj().T)


@pytest.fixture(scope="module")
def qutrit():
    """Seeded d=3 H0 with two random couplings, their sum, and two baths."""
    rng = np.random.default_rng(11)
    h0, a1, a2 = (_random_hermitian(rng, 3) for _ in range(3))
    dec = spectral_decompose(h0)
    ops = {
        "a1": bohr_decompose(dec, a1, index=0),
        "a2": bohr_decompose(dec, a2, index=1),
        "sum": bohr_decompose(dec, a1 + a2, index=0),
    }
    baths = {"ohmic": OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0),
             "discrete": DiscreteBath(beta=1.0, modes=((0.7, 0.3), (1.9, 0.2)))}
    return h0, ops, baths


GENERATORS = {
    "redfield_inf": lambda h0, jumps, baths: build_redfield_generator(h0, jumps, baths, LAM),
    "redfield_t1": lambda h0, jumps, baths: build_redfield_generator(h0, jumps, baths, LAM, t=1.0),
    "davies": lambda h0, jumps, baths: build_davies_generator(h0, jumps, baths, LAM),
    "interaction_t1": lambda h0, jumps, baths: interaction_redfield_generator(jumps, baths, LAM, 1.0),
    "cumulant_t1": lambda h0, jumps, baths: build_cumulant_exponent(h0, jumps, baths, LAM, 1.0),
}

# every builder at a given coupling and time (Davies has no time argument)
BUILDERS = {
    "redfield": lambda h0, jumps, baths, lam, t: build_redfield_generator(h0, jumps, baths, lam, t=t),
    "davies": lambda h0, jumps, baths, lam, t: build_davies_generator(h0, jumps, baths, lam),
    "interaction": lambda h0, jumps, baths, lam, t: interaction_redfield_generator(jumps, baths, lam, t),
    "cumulant": lambda h0, jumps, baths, lam, t: build_cumulant_exponent(h0, jumps, baths, lam, t),
    "cumulant_map": lambda h0, jumps, baths, lam, t: cumulant_map(h0, jumps, baths, lam, t),
}


def _dissipative_part(kind, h0, jumps, baths):
    m = GENERATORS[kind](h0, jumps, baths).matrix
    if kind in ("redfield_inf", "redfield_t1", "davies"):
        m = m - commutator_superop(h0)
    return m


class TestMultipleCouplings:
    @pytest.mark.parametrize("bath_name", ["ohmic", "discrete"])
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_shared_bath_couplings_add_as_operators(self, qutrit, kind, bath_name):
        h0, ops, baths = qutrit
        bath = baths[bath_name]
        pair = _dissipative_part(kind, h0, [ops["a1"], ops["a2"]], [bath, bath])
        single = _dissipative_part(kind, h0, [ops["sum"]], [bath])
        assert np.abs(pair - single).max() <= 1e-12 * np.abs(single).max()

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_independent_baths_add_dissipators(self, qutrit, kind):
        h0, ops, baths = qutrit
        both = _dissipative_part(kind, h0, [ops["a1"], ops["a2"]],
                                 [baths["ohmic"], baths["discrete"]])
        parts = (_dissipative_part(kind, h0, [ops["a1"]], [baths["ohmic"]])
                 + _dissipative_part(kind, h0, [ops["a2"]], [baths["discrete"]]))
        assert np.abs(both - parts).max() <= 1e-12 * np.abs(parts).max()

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_trace_preserving(self, qutrit, kind):
        h0, ops, baths = qutrit
        gen = GENERATORS[kind](h0, [ops["a1"], ops["a2"]], [baths["ohmic"], baths["discrete"]])
        assert gen.trace_defect() <= 1e-12 * np.linalg.norm(gen.matrix)

    @pytest.mark.parametrize("n_baths", [2, 4])
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_bath_count_must_match_couplings(self, qutrit, kind, n_baths):
        # one bath is shared by every coupling; a list needs one bath per coupling
        h0, ops, baths = qutrit
        with pytest.raises(ValidationError, match="one bath per coupling"):
            GENERATORS[kind](h0, [ops["a1"], ops["a2"], ops["sum"]], [baths["ohmic"]] * n_baths)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_negative_coupling_rejected(self, qutrit, kind):
        h0, ops, baths = qutrit
        with pytest.raises(ValidationError, match="coupling constant must be nonnegative"):
            BUILDERS[kind](h0, [ops["a1"]], baths["ohmic"], -0.1, 1.0)

    @pytest.mark.parametrize("lam, t", [(0.0, 1.0), (LAM, 0.0)], ids=["lam0", "t0"])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_bath_count_checked_before_early_return(self, qutrit, kind, lam, t):
        h0, ops, baths = qutrit
        with pytest.raises(ValidationError, match="one bath per coupling"):
            BUILDERS[kind](h0, [ops["a1"], ops["a2"]], [baths["ohmic"]] * 5, lam, t)

    def test_davies_steady_state_is_gibbs(self, qutrit):
        h0, ops, baths = qutrit
        gen = build_davies_generator(h0, [ops["a1"], ops["a2"]], baths["ohmic"], LAM)
        rho = steady_state_of_generator(gen)
        assert np.abs(rho - thermal_state(h0, 1.0)).max() <= 1e-10
