import numpy as np
import pytest

from meanforce.corrections import build_upsilon_table
from meanforce.errors import DomainError, ResourceError, ValidationError
from meanforce.generators import thermal_state
from meanforce.operators import (
    assemble_correction,
    bohr_decompose,
    pauli_coupling,
    spectral_decompose,
    tls_hamiltonian,
)
from meanforce.oracle import (
    TruncatedBath,
    _mode_operators,
    effective_hamiltonian,
    exact_reduced_gibbs,
    matching_bath,
    scaling_exponent,
    traceless,
)

BETA = 1.0
THREE_MODES = TruncatedBath(modes=((2.1, 0.6), (3.3, 0.8), (4.7, 0.5)), fock_cutoff=7)


@pytest.fixture(scope="module")
def system():
    h0 = tls_hamiltonian(1.0)
    s_op = pauli_coupling(1 / np.sqrt(2), 0.0, 1 / np.sqrt(2))
    return h0, s_op


class TestExactReducedGibbs:
    def test_decoupled_limit(self, system):
        h0, s_op = system
        rho = exact_reduced_gibbs(h0, s_op, THREE_MODES, BETA, 0.0)
        assert np.abs(rho - thermal_state(h0, BETA)).max() <= 1e-12

    def test_unit_trace(self, system):
        h0, s_op = system
        rho = exact_reduced_gibbs(h0, s_op, THREE_MODES, BETA, 0.05)
        assert abs(np.trace(rho) - 1.0) <= 1e-13

    def test_fock_cutoff_convergence(self, system):
        h0, s_op = system
        modes = ((2.1, 0.6), (3.3, 0.8))  # beta * W_k >= 2 keeps truncation tiny
        r6 = exact_reduced_gibbs(h0, s_op, TruncatedBath(modes, 6), BETA, 0.05)
        r8 = exact_reduced_gibbs(h0, s_op, TruncatedBath(modes, 8), BETA, 0.05)
        assert np.abs(r6 - r8).max() <= 1e-8

    @staticmethod
    def loop_reference(h0, coupling, truncated, beta, lam):
        """Complex eigh of the full H, then the partial trace one (i, k) entry at a time."""
        d, dim_b = h0.shape[0], truncated.dimension()
        h_r, r = _mode_operators(truncated)
        h = np.kron(h0, np.eye(dim_b)) + np.kron(np.eye(d), h_r) + lam * np.kron(coupling, r)
        vals, vecs = np.linalg.eigh(h)
        gibbs = (vecs * np.exp(-beta * (vals - vals.min()))) @ vecs.conj().T
        blocks = gibbs.reshape(d, dim_b, d, dim_b)
        rho = np.array([[np.trace(blocks[i, :, k, :]) for k in range(d)] for i in range(d)])
        return rho / np.trace(rho).real

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_loop_reference(self, system, kind):
        h0, s_op = system
        if kind == "complex":  # sigma_y in the coupling: H has an imaginary part
            s_op = pauli_coupling(0.6, 0.5, 0.3)
        small = TruncatedBath(THREE_MODES.modes, fock_cutoff=4)
        rho = exact_reduced_gibbs(h0, s_op, small, BETA, 0.3)
        ref = self.loop_reference(h0, s_op, small, BETA, 0.3)
        assert np.abs(rho - ref).max() <= 1e-13

    def test_dimension_guard(self, system):
        h0, s_op = system
        big = TruncatedBath(modes=((1.0, 0.1),) * 4, fock_cutoff=7)
        with pytest.raises(ResourceError):
            exact_reduced_gibbs(h0, s_op, big, BETA, 0.1)

    def test_invalid_cutoff(self):
        with pytest.raises(ValidationError):
            TruncatedBath(modes=((1.0, 0.1),), fock_cutoff=1)


class TestEffectiveHamiltonian:
    def test_gibbs_round_trip(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = 0.5 * (a + a.conj().T)
        heff = effective_hamiltonian(thermal_state(h, BETA), BETA)
        assert np.abs(heff - traceless(h)).max() <= 1e-10

    @pytest.mark.parametrize("kind", ["gibbs", "random"])
    def test_matches_logm(self, kind):
        # the eigh route -V log(lambda) V^dag / beta against scipy's logm
        from scipy.linalg import logm

        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if kind == "gibbs":
            rho = thermal_state(0.5 * (a + a.conj().T), BETA)
        else:
            rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        expect = traceless(-logm(rho) / BETA)
        assert np.abs(effective_hamiltonian(rho, BETA) - expect).max() <= 1e-13

    def test_maximally_mixed(self):
        heff = effective_hamiltonian(np.eye(2) / 2, BETA)
        assert np.abs(heff).max() <= 1e-12

    def test_singular_state_rejected(self):
        with pytest.raises(DomainError):
            effective_hamiltonian(np.diag([1.0, 0.0]).astype(complex), BETA)


class TestScalingExponent:
    def test_exact_square_law(self):
        xs = np.array([0.1, 0.2, 0.4, 0.8])
        assert scaling_exponent(xs, xs**2) == pytest.approx(2.0, abs=1e-12)

    def test_noisy_quartic(self):
        rng = np.random.default_rng(12)
        xs = np.logspace(-2, -0.5, 8)
        ys = xs**4 * (1.0 + 0.01 * rng.normal(size=8))
        assert scaling_exponent(xs, ys) == pytest.approx(4.0, abs=0.1)

    def test_guards(self):
        with pytest.raises(ValidationError):
            scaling_exponent([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            scaling_exponent([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])


class TestMeanForcePipeline:
    def test_lambda_scaling_of_residual(self, system):
        # exact-bath oracle: residual against lam^2 * traceless(H_mf) shrinks as lam^4
        h0, s_op = system
        bath = matching_bath(THREE_MODES, BETA)
        jumps = [bohr_decompose(spectral_decompose(h0), s_op)]
        hmf = assemble_correction(build_upsilon_table("mean_force", jumps, bath), jumps)
        lams = (0.02, 0.05, 0.1)
        resid = []
        for lam in lams:
            rho = exact_reduced_gibbs(h0, s_op, THREE_MODES, BETA, lam)
            heff = effective_hamiltonian(rho, BETA)
            resid.append(np.linalg.norm(heff - traceless(h0) - lam**2 * traceless(hmf)))
        assert scaling_exponent(lams, resid) == pytest.approx(4.0, abs=0.3)

    def test_offdiagonal_convergence(self, system):
        h0, s_op = system
        bath = matching_bath(THREE_MODES, BETA)
        jumps = [bohr_decompose(spectral_decompose(h0), s_op)]
        hmf = assemble_correction(build_upsilon_table("mean_force", jumps, bath), jumps)
        lam = 0.02
        heff = effective_hamiltonian(exact_reduced_gibbs(h0, s_op, THREE_MODES, BETA, lam), BETA)
        rel = abs(heff[0, 1] / lam**2 - hmf[0, 1]) / abs(hmf[0, 1])
        assert rel <= 0.05
