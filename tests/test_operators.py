import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanforce.bath import DiscreteBath, OhmicBath
from meanforce.corrections import build_upsilon_table
from meanforce.errors import ConsistencyError, NumericsError, ValidationError
from meanforce.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    UpsilonTable,
    assemble_correction,
    bohr_decompose,
    pauli_coupling,
    require_hermitian,
    spectral_decompose,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


class TestSpectralDecompose:
    def test_tls_diagonal(self):
        dec = spectral_decompose(np.diag([-0.5, 0.5]).astype(complex))
        assert dec.energies == (-0.5, 0.5)
        assert np.allclose(dec.projectors[0], np.diag([1.0, 0.0]))
        assert np.allclose(dec.projectors[1], np.diag([0.0, 1.0]))

    def test_degenerate_identity(self):
        dec = spectral_decompose(3.7 * np.eye(3, dtype=complex))
        assert len(dec.energies) == 1
        assert dec.energies[0] == pytest.approx(3.7, abs=1e-14)
        assert np.allclose(dec.projectors[0], np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, seed):
        h = random_hermitian(4, seed)
        dec = spectral_decompose(h)
        assert np.linalg.norm(dec.hamiltonian() - h) <= 1e-10

    def test_projector_completeness_and_orthogonality(self):
        h = random_hermitian(4, 11)
        dec = spectral_decompose(h)
        total = sum(dec.projectors)
        assert np.linalg.norm(total - np.eye(4)) <= 1e-10
        for i, p in enumerate(dec.projectors):
            for j, q in enumerate(dec.projectors):
                expect = p if i == j else 0.0
                assert np.abs(p @ q - expect).max() <= 1e-10

    def test_near_degenerate_clustering(self):
        h = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
        dec = spectral_decompose(h, tol=1e-9)
        assert len(dec.energies) == 2

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            spectral_decompose(np.eye(2), tol=0.0)


class TestBohrDecompose:
    def test_sigma_x_jumps(self, tls_decomposition):
        jd = bohr_decompose(tls_decomposition, SIGMA_X)
        assert jd.frequencies == (-1.0, 1.0)
        # A(+w0) lowers |e> = |1> into the ground state |0> (sigma_z = +1)
        assert np.allclose(jd.op(1.0), np.array([[0, 1], [0, 0]]))
        assert np.allclose(jd.op(-1.0), np.array([[0, 0], [1, 0]]))

    def test_identity_coupling(self, tls_decomposition):
        jd = bohr_decompose(tls_decomposition, np.eye(2, dtype=complex))
        assert jd.frequencies == (0.0,)
        assert np.allclose(jd.op(0.0), np.eye(2))

    def test_general_pauli_vector_blocks(self, tls_decomposition):
        x, y, z = 0.3, -0.4, 0.8
        jd = bohr_decompose(tls_decomposition, pauli_coupling(x, y, z))
        assert jd.frequencies == (-1.0, 0.0, 1.0)
        # explicit 2x2 projector algebra: P0 A P1 = <0|A|1> |0><1| etc.
        a = x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
        assert np.allclose(jd.op(0.0), z * SIGMA_Z)
        assert np.allclose(jd.op(1.0), a[0, 1] * np.array([[0, 1], [0, 0]]))
        assert np.allclose(jd.op(-1.0), a[1, 0] * np.array([[0, 0], [1, 0]]))

    def test_dimension_mismatch(self, tls_decomposition):
        with pytest.raises(ValidationError):
            bohr_decompose(tls_decomposition, np.eye(3, dtype=complex))

    @pytest.mark.parametrize("dim,seed", [(2, 3), (3, 4), (4, 5)])
    def test_invariants(self, dim, seed):
        h = random_hermitian(dim, seed)
        a = random_hermitian(dim, seed + 100)
        dec = spectral_decompose(h)
        jd = bohr_decompose(dec, a)
        scale = max(1.0, np.abs(a).max())
        # sum rule
        assert np.abs(jd.total() - a).max() <= 1e-10 * scale
        for w in jd.frequencies:
            # dagger pairing and commutator eigenrelation
            assert np.abs(jd.op(w).conj().T - jd.op(-w)).max() <= 1e-10 * scale
            comm = jd.op(w) @ h - h @ jd.op(w)
            assert np.abs(comm - w * jd.op(w)).max() <= 1e-9 * scale


class TestAssembleCorrection:
    def test_zero_table(self, jumps):
        table = UpsilonTable("mean_force", {})
        assert np.abs(assemble_correction(table, jumps)).max() == 0.0
        # zero entries are skipped before their keys are checked
        table = UpsilonTable("mean_force", {(5, 0, 1.0, 1.0): 0.0, (0, 0, 0.25, 1.0): 0.0})
        assert np.abs(assemble_correction(table, jumps)).max() == 0.0

    def test_tls_offdiagonal_structure(self, tls_decomposition):
        # completed Hermitian table with only the (0,-w0)/(w0,0) family populated
        x, y, z = 0.3, -0.2, 0.9
        jd = bohr_decompose(tls_decomposition, pauli_coupling(x, y, z))
        a_val, b_val = 0.7, 0.2
        entries = {
            (0, 0, 0.0, -1.0): a_val, (0, 0, -1.0, 0.0): a_val,
            (0, 0, 1.0, 0.0): b_val, (0, 0, 0.0, 1.0): b_val,
        }
        h = assemble_correction(UpsilonTable("mean_force", entries), [jd])
        # ground-first ordering gives H01 = (x-iy) z (Y(0,w0) - Y(-w0,0)); an
        # excited-first basis carries the opposite combination
        expect01 = (x - 1j * y) * z * (b_val - a_val)
        assert h[0, 1] == pytest.approx(expect01, abs=1e-12)
        assert h[1, 0] == pytest.approx(np.conj(expect01), abs=1e-12)
        assert abs(h[0, 1]) == pytest.approx(abs((x - 1j * y) * z * (a_val - b_val)), abs=1e-12)
        assert np.allclose(np.diag(h), 0.0)

    def test_diagonal_family_gauge_shift(self, tls_decomposition):
        x, y, z = 0.3, -0.2, 0.9
        jd = bohr_decompose(tls_decomposition, pauli_coupling(x, y, z))
        c = 0.37
        entries = {(0, 0, w, w): c for w in jd.frequencies}
        h = assemble_correction(UpsilonTable("steady_state", entries), [jd])
        assert np.allclose(h, c * (x * x + y * y + z * z) * np.eye(2), atol=1e-12)

    def test_linearity(self, jumps, bath):
        table = build_upsilon_table("mean_force", jumps, bath)
        h1 = assemble_correction(table, jumps)
        h3 = assemble_correction(table.scaled(3.0), jumps)
        assert np.abs(h3 - 3.0 * h1).max() <= 1e-12 * np.abs(h3).max()

    @staticmethod
    def _direct_sum(table, jumps):
        """Oracle: Y_ab(w,w') A_a(w)^dag A_b(w') summed one product at a time over every
        coupling pair and every pair of their frequencies."""
        d = jumps[0].dim
        direct = np.zeros((d, d), dtype=complex)
        for (a, ja), (b, jb) in itertools.product(enumerate(jumps), repeat=2):
            for w, wp in itertools.product(ja.frequencies, jb.frequencies):
                direct += table.value(a, b, w, wp) * (ja.op(w).conj().T @ jb.op(wp))
        return direct

    def test_mean_force_table_hermitian_and_matches_direct_sum(self, jumps, bath):
        table = build_upsilon_table("mean_force", jumps, bath)
        table.validate_pairing()
        h = assemble_correction(table, jumps)
        assert np.abs(h - h.conj().T).max() <= 1e-12 * np.abs(h).max()
        direct = self._direct_sum(table, jumps)
        assert np.abs(h - direct).max() <= 1e-12 * max(1.0, np.abs(h).max())

    # two couplings on one bath and on two baths, at d = 3 and 4
    @pytest.mark.parametrize("kind", ["dynamical", "steady_state"])
    @pytest.mark.parametrize("n_baths", [1, 2])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_table_matches_direct_sum(self, dim, n_baths, kind):
        dec = spectral_decompose(random_hermitian(dim, 40 + dim))
        jumps = [bohr_decompose(dec, random_hermitian(dim, 50 + dim + k), index=k) for k in range(2)]
        baths = [OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0),
                 OhmicBath(beta=1.0, coupling=0.4, cutoff=20.0)][:n_baths]
        table = build_upsilon_table(kind, jumps, baths)
        h = assemble_correction(table, jumps)
        direct = self._direct_sum(table, jumps)
        assert np.abs(h - direct).max() <= 1e-13 * np.abs(direct).max()

    def test_missing_jump_entry_rejected(self, tls_decomposition):
        jd = bohr_decompose(tls_decomposition, SIGMA_X)  # no zero-frequency block
        table = UpsilonTable("dynamical", {(0, 0, 0.0, 1.0): 1.0})
        with pytest.raises(ValidationError, match="coupling 0 has no jump operator at frequency 0"):
            assemble_correction(table, [jd])

    def test_non_hermitian_result_rejected(self, jumps):
        table = UpsilonTable("mean_force", {(0, 0, 0.0, 1.0): 1.0})
        with pytest.raises(ConsistencyError):
            assemble_correction(table, jumps)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            UpsilonTable("bogus", {})

    @staticmethod
    def _dynamical(indices, order):
        """H of the dynamical table for two couplings on two baths, listed in `order`."""
        dec = spectral_decompose(random_hermitian(3, 21))
        jumps = [bohr_decompose(dec, random_hermitian(3, 22 + k), index=i)
                 for k, i in enumerate(indices)]
        baths = [DiscreteBath(beta=1.0, modes=((0.7, 0.3), (1.9, 0.2))),
                 DiscreteBath(beta=1.0, modes=((1.3, 0.4),))]
        jumps, baths = [jumps[k] for k in order], [baths[k] for k in order]
        return assemble_correction(build_upsilon_table("dynamical", jumps, baths), jumps)

    def test_coupling_order_does_not_matter(self):
        # tables key couplings by their position in the list, whatever .index says
        forward = self._dynamical((0, 1), (0, 1))
        backward = self._dynamical((0, 1), (1, 0))
        assert np.abs(backward - forward).max() <= 1e-12 * np.abs(forward).max()

    def test_default_indices_assemble(self):
        expect = self._dynamical((0, 1), (0, 1))
        h = self._dynamical((0, 0), (0, 1))
        assert np.abs(h - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_index_out_of_range_rejected(self, jumps):
        table = UpsilonTable("dynamical", {(-1, 0, 1.0, 1.0): 1.0})  # no wrap-around
        with pytest.raises(ValidationError, match="unknown coupling index"):
            assemble_correction(table, jumps)


class TestArrayStorage:
    """A table is arrays over its stacked index; `entries` is a view built from them."""

    @pytest.mark.parametrize("kind", ["dynamical", "mean_force", "steady_state"])
    def test_dict_round_trip(self, two_on_one_bath, kind):
        _, jumps, bath = two_on_one_bath
        built = build_upsilon_table(kind, jumps, bath)
        again = UpsilonTable(kind, built.entries)
        assert again.entries == built.entries
        assert all(again.value(*key) == v for key, v in built.entries.items())
        assert np.array_equal(assemble_correction(again, jumps), assemble_correction(built, jumps))

    def test_entries_view_is_read_only(self, jumps, bath):
        table = build_upsilon_table("mean_force", jumps, bath)
        with pytest.raises(TypeError):
            table.entries[(0, 0, 0.0, 0.0)] = 1.0
        assert table.entries is table.entries

    def test_dict_index_is_sorted_union_of_keys(self):
        table = UpsilonTable("dynamical", {(1, 0, 2.0, -1.0): 0.5, (0, 1, 0.0, 2.0): 0.0})
        assert table.coupling.tolist() == [0, 0, 1]
        assert table.freqs.tolist() == [-1.0, 0.0, 2.0]
        assert table.entries == {(1, 0, 2.0, -1.0): 0.5, (0, 1, 0.0, 2.0): 0.0}
        assert table.value(0, 1, 0.0, 2.0) == 0.0 and table.value(0, 0, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, jumps, bad):
        table = UpsilonTable("mean_force", {(0, 0, 1.0, 1.0): bad, (0, 0, -1.0, -1.0): 2.0})
        with pytest.raises(ConsistencyError, match=r"non-finite coefficient at \(0,0,1,1\)"):
            table.validate_pairing()
        with pytest.raises(NumericsError, match=r"mean_force table has a non-finite coefficient at \(0,0,1,1\)"):
            assemble_correction(table, jumps)

    def test_pairing_violations_named(self):
        herm = UpsilonTable("dynamical", {(0, 0, 0.0, 1.0): 1.0, (0, 0, 1.0, 0.0): 1.5})
        with pytest.raises(ConsistencyError, match=r"hermiticity pairing violated at \(0,0,0,1\)"):
            herm.validate_pairing()
        missing = UpsilonTable("dynamical", {(0, 1, 0.0, 1.0): 1.0})
        with pytest.raises(ConsistencyError, match=r"hermiticity pairing violated at \(0,1,0,1\)"):
            missing.validate_pairing()
        # Hermitian but not symmetric in (w, w'): only the mean-force kind requires it
        entries = {(0, 1, 0.0, 1.0): 1.0, (1, 0, 1.0, 0.0): 1.0, (0, 1, 1.0, 0.0): 2.0, (1, 0, 0.0, 1.0): 2.0}
        UpsilonTable("dynamical", entries).validate_pairing()
        with pytest.raises(ConsistencyError, match=r"mean-force symmetry violated at \(0,1,0,1\)"):
            UpsilonTable("mean_force", entries).validate_pairing()
        lone = {(0, 1, 0.0, 1.0): 1.0, (1, 0, 1.0, 0.0): 1.0}  # (0, 1, 1, 0) absent
        with pytest.raises(ConsistencyError, match="mean-force symmetry"):
            UpsilonTable("mean_force", lone).validate_pairing()
        UpsilonTable("mean_force", {}).validate_pairing()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3, 4]))
def test_jump_sum_rule_property(seed, dim):
    h = random_hermitian(dim, seed)
    a = random_hermitian(dim, seed + 1)
    jd = bohr_decompose(spectral_decompose(h), a)
    assert np.abs(jd.total() - a).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_require_hermitian_passthrough():
    m = require_hermitian([[1.0, 0.0], [0.0, 2.0]])
    assert m.dtype == complex
    with pytest.raises(ValidationError):
        require_hermitian(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_hermitian_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="H0 has non-finite entries"):
        require_hermitian([[bad, 0.0], [0.0, 1.0]], name="H0")


def test_non_finite_hamiltonian_never_reaches_eigh():
    from meanforce.generators import thermal_state

    nan = [[np.nan, 0.0], [0.0, 1.0]]
    with pytest.raises(ValidationError, match="non-finite"):
        thermal_state(nan, 1.0)
    with pytest.raises(ValidationError, match="non-finite"):
        spectral_decompose(nan)
