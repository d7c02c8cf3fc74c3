"""Linear-algebra and entropy kernel tests.

Expected values fall into three kinds: textbook identities asserted
directly, values computed here by an independent construction (dense
matrices, Shannon sums), and hand-expanded amplitude tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import dense_amps, density
from sqcka import qmath
from sqcka.qmath import (
    CapacityError,
    DomainError,
    LayoutError,
    RegisterLayout,
    StateVector,
    ValidationError,
    apply_on_subsystems,
    basis_state,
    binary_entropy,
    bits_to_index,
    complement_index,
    conditional_entropy,
    entropy_of_spectrum,
    partial_trace,
    slice_overlap,
    subsystem_probabilities,
    tensor,
)


def random_unitary(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(mat)[0]


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps))


def von_neumann_entropy(rho):
    return entropy_of_spectrum(np.linalg.eigvalsh(rho))


def permutation_matrix(perm):
    """The dense operator of a basis permutation: P[perm[j], j] = 1."""
    mat = np.zeros((len(perm), len(perm)))
    mat[perm, np.arange(len(perm))] = 1.0
    return mat


class TestBitHelpers:
    def test_round_trip(self):
        assert bits_to_index("011") == 3
        assert bits_to_index((1, 0)) == 2

    def test_complement(self):
        assert complement_index(0b011, 3) == 0b100
        assert complement_index(0, 2) == 3

    def test_bad_bits(self):
        with pytest.raises(DomainError):
            bits_to_index("012")


class TestRegisterLayout:
    def test_index_arithmetic(self):
        lay = RegisterLayout([("A", 2), ("T", 4), ("B", 4)])
        assert lay.total_dim == 32
        # first label is most significant
        assert np.ravel_multi_index((1, 0, 0), lay.dims) == 16
        assert np.ravel_multi_index((0, 3, 2), lay.dims) == 14
        assert lay.axes_of(("B", "A")) == (0, 2)

    def test_errors(self):
        with pytest.raises(LayoutError):
            RegisterLayout([("A", 2), ("A", 2)])
        with pytest.raises(LayoutError):
            RegisterLayout([("A", 0)])
        lay = RegisterLayout([("A", 2)])
        with pytest.raises(LayoutError):
            lay.axis("Z")

    def test_repeated_target_label(self):
        lay = RegisterLayout([("A", 2), ("T", 4)])
        s = basis_state(8, 0)
        with pytest.raises(LayoutError, match="'A' given more than once"):
            subsystem_probabilities(s, lay, ("A", "A"))
        with pytest.raises(LayoutError, match="'T' given more than once"):
            apply_on_subsystems(np.arange(16), s, lay, ("T", "T"))

    def test_restrict_keeps_order(self):
        lay = RegisterLayout([("A", 2), ("T", 4), ("B", 4)])
        assert lay.restrict(("B", "A")).labels == ("A", "B")


class TestStateVector:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            StateVector([float("nan"), 0.0])

    def test_rejects_bad_norm(self):
        with pytest.raises(ValidationError):
            StateVector([0.5, 0.5])

    def test_immutable(self):
        s = basis_state(4, 1)
        for arr in (s.index, s.values):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_rejects_non_finite_unnormalized(self, bad):
        with pytest.raises(ValidationError, match="NaN/Inf"):
            StateVector([bad, 0.5])

    def test_wraps_caller_buffer_read_only(self):
        # the state keeps read-only support arrays of its own: no full-size
        # copy, and the caller's buffer stays writeable and untouched
        buf = np.zeros(64, dtype=complex)
        buf[[3, 40]] = [0.6, 0.8j]
        before = buf.copy()
        s = StateVector(buf)
        np.testing.assert_array_equal(s.index, [3, 40])
        np.testing.assert_array_equal(s.values, [0.6, 0.8j])
        for arr in (s.index, s.values):
            assert arr.size == 2 and not arr.flags.writeable
            assert not np.shares_memory(arr, buf)
        assert buf.flags.writeable
        np.testing.assert_array_equal(buf, before)
        buf[3] = 0.0  # the caller's array stays writeable; the state keeps its values
        assert s.values[0] == 0.6

    def test_support_form_matches_dense(self):
        rng = np.random.default_rng(13)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps[rng.random(32) < 0.5] = 0.0
        amps[5] = -0.0  # a signed zero is not kept
        amps /= np.linalg.norm(amps)
        index = np.flatnonzero(amps)
        shuffled = rng.permutation(np.append(index, 5))
        values = amps[shuffled]
        s = StateVector(values, shuffled, 32)
        d = StateVector(amps)
        for state in (s, d):
            np.testing.assert_array_equal(state.index, index)
            np.testing.assert_array_equal(state.values, amps[index])
            np.testing.assert_array_equal(dense_amps(state), amps)
        assert s.dim == d.dim == 32
        assert shuffled.flags.writeable and values.flags.writeable

    @pytest.mark.parametrize("index,values", [
        ([1, 1], [0.6, 0.8]), ([-1, 2], [0.6, 0.8]), ([0, 4], [0.6, 0.8]),
        ([0.0, 1.0], [0.6, 0.8]), ([0, 1, 2], [0.6, 0.8])],
        ids=["repeated", "negative", "past-dim", "float", "size-mismatch"])
    def test_support_form_rejects_bad_index(self, index, values):
        with pytest.raises(ValidationError, match="support"):
            StateVector(values, index, 4)

    def test_support_form_capacity_checked_first(self):
        with pytest.raises(CapacityError):
            StateVector([1.0], [0], qmath.DIM_CAP + 1)
        with pytest.raises(ValidationError, match="empty"):
            StateVector([], [], 0)


def sparse_state(rng, dim, keep=0.4):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps[rng.random(dim) > keep] = 0.0
    amps[rng.integers(dim)] = 1.0
    return StateVector(amps / np.linalg.norm(amps))


class TestTensor:
    def test_matches_kron_on_sparse_states(self):
        rng = np.random.default_rng(14)
        for dx, dy in ((2, 3), (8, 4), (5, 16)):
            x, y = sparse_state(rng, dx), sparse_state(rng, dy)
            out = tensor(x, y)
            np.testing.assert_array_equal(dense_amps(out),
                                          np.kron(dense_amps(x), dense_amps(y)))
            assert out.index.size == x.index.size * y.index.size

    def test_basis_composition(self):
        out = tensor(basis_state(2, 0), basis_state(2, 0))
        np.testing.assert_allclose(dense_amps(out), [1, 0, 0, 0])

    def test_linearity(self):
        plus = StateVector(np.array([1, 1]) / math.sqrt(2))
        out = tensor(plus, basis_state(2, 1))
        np.testing.assert_allclose(dense_amps(out), [0, 2 ** -0.5, 0, 2 ** -0.5])

    def test_depolarizing_env_expansion(self):
        # |b>_T (x) |Omega>_E for one qubit at strength 1/2: the maximally
        # entangled mirror pair times the balanced control, expanded by hand,
        # puts amplitude 0.5 on each of the four (i=j, control) branches.
        pair = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        ctrl = StateVector(np.array([math.sqrt(0.5), math.sqrt(0.5)]))
        env = tensor(pair, ctrl)
        out = tensor(basis_state(2, 1), env)
        expected = np.zeros(16)
        for e1e2e3 in (0b000, 0b001, 0b110, 0b111):
            expected[0b1000 | e1e2e3] = 0.5
        np.testing.assert_allclose(dense_amps(out), expected, atol=1e-15)

    def test_capacity_error(self):
        big = StateVector(np.ones(1 << 12) / (1 << 6))
        with pytest.raises(CapacityError):
            tensor(tensor(big, big), basis_state(2, 0))


class TestApplyOnSubsystems:
    def test_identity(self):
        rng = np.random.default_rng(0)
        lay = RegisterLayout([("A", 2), ("B", 3)])
        s = random_state(rng, 6)
        out = apply_on_subsystems(np.arange(3), s, lay, ("B",))
        np.testing.assert_array_equal(dense_amps(out), dense_amps(s))

    def test_swap(self):
        # swapping two qubits transposes the (A, T) amplitude table
        rng = np.random.default_rng(1)
        lay = RegisterLayout([("A", 2), ("T", 2)])
        s = random_state(rng, 4)
        out = apply_on_subsystems(np.array([0, 2, 1, 3]), s, lay, ("A", "T"))
        np.testing.assert_array_equal(dense_amps(out), dense_amps(s).reshape(2, 2).T.ravel())

    def test_non_unitary_rejected(self):
        lay = RegisterLayout([("A", 2)])
        with pytest.raises(ValidationError):
            apply_on_subsystems(np.array([[1, 0], [0, 2]]), basis_state(2, 0),
                                lay, ("A",))

    @pytest.mark.parametrize("kind", ["identity", "random", "permutation"])
    def test_unitary_matrix_rejected(self, kind):
        # only a 1-D basis permutation is an operator; a matrix is refused,
        # even a unitary one or the matrix of a permutation
        lay = RegisterLayout([("A", 2), ("T", 2)])
        mat = {"identity": np.eye(4), "random": random_unitary(np.random.default_rng(2), 4),
               "permutation": permutation_matrix([0, 2, 1, 3])}[kind]
        with pytest.raises(ValidationError, match="1-D basis permutation"):
            apply_on_subsystems(mat, basis_state(4, 0), lay, ("A", "T"))

    def test_unknown_label(self):
        lay = RegisterLayout([("A", 2)])
        with pytest.raises(LayoutError):
            apply_on_subsystems(np.arange(2), basis_state(2, 0), lay, ("T",))

    def test_permutation_matches_matrix(self):
        lay = RegisterLayout([("A", 2), ("T", 2)])
        perm = np.array([0, 2, 1, 3])  # swap A and T
        out = apply_on_subsystems(perm, basis_state(4, 0b01), lay, ("A", "T"))
        np.testing.assert_array_equal(dense_amps(out), dense_amps(basis_state(4, 0b10)))
        s = random_state(np.random.default_rng(3), 4)
        out = apply_on_subsystems(np.array([1, 2, 3, 0]), s, lay, ("A", "T"))
        np.testing.assert_array_equal(dense_amps(out),
                                      permutation_matrix([1, 2, 3, 0]) @ dense_amps(s))

    @pytest.mark.parametrize("perm", [[0, 1, 2], [0, 1, 2, 3, 0], [0, 1, 2, 4],
                                      [0, -1, 2, 3], [0, 1, 1, 3]],
                             ids=["short", "long", "out-of-range", "negative",
                                  "repeated"])
    def test_bad_permutation_rejected(self, perm):
        lay = RegisterLayout([("A", 2), ("T", 2)])
        with pytest.raises(ValidationError, match=f"permutation of {len(perm)} "
                                                  "entries does not list each"):
            apply_on_subsystems(np.array(perm), basis_state(4, 0), lay, ("A", "T"))

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(11)
        lay = RegisterLayout([("A", 2), ("T", 4), ("B", 2), ("E", 3)])
        for _ in range(20):
            s = random_state(rng, lay.total_dim)
            out = apply_on_subsystems(rng.permutation(8), s, lay, ("T", "B"))
            assert abs(np.linalg.norm(out.values) - 1.0) <= 1e-12

    def test_matches_dense_conjugation(self):
        rng = np.random.default_rng(12)
        lay = RegisterLayout([("A", 2), ("T", 2), ("E", 2)])
        s = random_state(rng, 8)
        perm = rng.permutation(4)
        u = permutation_matrix(perm)
        out = apply_on_subsystems(perm, s, lay, ("A", "E"))
        # dense reference: permute (A,E,T), apply u (x) I, permute back
        psi = dense_amps(s).reshape(2, 2, 2).transpose(0, 2, 1).reshape(4, 2)
        ref = (u @ psi).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
        np.testing.assert_allclose(dense_amps(out), ref, atol=1e-14)


class TestSliceOverlap:
    @pytest.mark.parametrize("keep", [1.0, 0.3])
    def test_matches_dense_slices(self, keep):
        rng = np.random.default_rng(15)
        lay = RegisterLayout([("E", 3), ("A", 2), ("F", 2), ("T", 4)])
        for _ in range(10):
            s = sparse_state(rng, lay.total_dim, keep)
            psi = np.moveaxis(dense_amps(s).reshape(lay.dims), (3, 1), (0, 1))
            for x, y in (((0, 0), (3, 1)), ((2, 1), (2, 1)), ((1, 0), (0, 1))):
                got = slice_overlap(s, lay, ("T", "A"), x, y)
                want = np.vdot(psi[x].ravel(), psi[y].ravel())
                assert abs(got - want) <= 1e-15

    def test_disjoint_slices(self):
        lay = RegisterLayout([("A", 2), ("E", 2)])
        s = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert slice_overlap(s, lay, ("A",), (0,), (1,)) == 0
        # an empty slice
        assert slice_overlap(basis_state(4, 0), lay, ("E",), (0,), (1,)) == 0


class TestPartialTrace:
    def test_product_state(self):
        psi = tensor(basis_state(2, 0), basis_state(2, 0))
        lay = RegisterLayout([("A", 2), ("B", 2)])
        red = partial_trace(density(psi), lay, ("A",))
        np.testing.assert_allclose(red, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_pair_is_maximally_mixed(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        lay = RegisterLayout([("A", 2), ("B", 2)])
        red = partial_trace(density(bell), lay, ("A",))
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-15)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(3)
        lay = RegisterLayout([("A", 2), ("B", 3)])
        rho = density(random_state(rng, 6))
        red = partial_trace(rho, lay, ("A", "B"))
        np.testing.assert_allclose(red, rho, atol=1e-15)

    def test_composition(self):
        rng = np.random.default_rng(4)
        lay = RegisterLayout([("T", 2), ("B", 2), ("E", 3)])
        rho = density(random_state(rng, 12))
        step = partial_trace(rho, lay, ("T", "E"))
        two = partial_trace(step, lay.restrict(("T", "E")), ("E",))
        direct = partial_trace(rho, lay, ("E",))
        np.testing.assert_allclose(two, direct, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        lay = RegisterLayout([("A", 4), ("B", 4)])
        rho = density(random_state(rng, 16))
        red = partial_trace(rho, lay, ("B",))
        assert abs(np.trace(red) - 1.0) <= 1e-12

    def test_empty_keep_rejected(self):
        lay = RegisterLayout([("A", 2)])
        rho = density(basis_state(2, 0))
        with pytest.raises(DomainError):
            partial_trace(rho, lay, ())

    def test_measurement_copy_equals_block_diagonal(self):
        # decohering A by copying it into an ancilla and tracing the copy
        # must equal zeroing the A-off-diagonal blocks
        rng = np.random.default_rng(6)
        s = random_state(rng, 4)  # A (x) E
        lay = RegisterLayout([("A", 2), ("E", 2), ("M", 2)])
        cnot = np.array([0, 1, 3, 2])  # CNOT with A controlling M
        psi = tensor(s, basis_state(2, 0))
        psi = apply_on_subsystems(cnot, psi, lay, ("A", "M"))
        rho_ae = partial_trace(density(psi), lay, ("A", "E"))
        full = density(s)
        full[0:2, 2:4] = 0
        full[2:4, 0:2] = 0
        np.testing.assert_allclose(rho_ae, full, atol=1e-14)


class TestEntropies:
    def test_maximally_mixed_qubit(self):
        rho = np.eye(2) / 2
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_zero(self):
        assert von_neumann_entropy(density(basis_state(4, 2))) == \
            pytest.approx(0.0, abs=1e-12)

    def test_uniform_four(self):
        rho = np.eye(4) / 4
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_matches_eigenvalue_shannon(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(5))
        u = random_unitary(rng, 5)
        rho = u @ np.diag(probs.astype(complex)) @ u.conj().T
        expected = -(probs * np.log2(probs)).sum()
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        probs = rng.dirichlet(np.ones(6))
        rho = np.diag(probs.astype(complex))
        u = random_unitary(rng, 6)
        s1 = von_neumann_entropy(rho)
        s2 = von_neumann_entropy(u @ rho @ u.conj().T)
        assert s1 == pytest.approx(s2, abs=1e-9)

    def test_non_hermitian_rejected(self):
        lay = RegisterLayout([("A", 2), ("E", 1)])
        with pytest.raises(ValidationError, match="not Hermitian"):
            conditional_entropy(np.array([[0.5, 0.5], [0.0, 0.5]]), lay, ("A",), ("E",))


class TestConditionalEntropy:
    def test_product_with_mixed_marginal(self):
        rho = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
        lay = RegisterLayout([("A", 2), ("E", 2)])
        assert conditional_entropy(rho, lay, ("A",), ("E",)) == \
            pytest.approx(1.0, abs=1e-10)

    def test_bell_pair_is_minus_one(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        lay = RegisterLayout([("A", 2), ("E", 2)])
        assert conditional_entropy(density(bell), lay, ("A",), ("E",)) == \
            pytest.approx(-1.0, abs=1e-10)

    def test_classical_classical_equals_shannon(self):
        rng = np.random.default_rng(10)
        for da in (2, 3, 4):
            for de in (2, 3, 4):
                joint = rng.dirichlet(np.ones(da * de)).reshape(da, de)
                rho = np.diag(joint.ravel().astype(complex))
                lay = RegisterLayout([("A", da), ("E", de)])
                pe = joint.sum(axis=0)
                shannon = -(joint[joint > 0] * np.log2(joint[joint > 0])).sum() + \
                    (pe[pe > 0] * np.log2(pe[pe > 0])).sum()
                got = conditional_entropy(rho, lay, ("A",), ("E",))
                assert got == pytest.approx(shannon, abs=1e-9)

    @pytest.mark.parametrize("rho,match", [
        (np.full((4, 2), 0.25), "must be square"),
        (np.eye(4) / 2, "trace"),
        (np.diag([0.5, 0.5, np.nan, 0.0]), "NaN/Inf"),
        (np.diag([0.25, 0.25, 0.25, np.inf]), "NaN/Inf")],
        ids=["non-square", "trace", "nan", "inf"])
    def test_rejects_malformed_operator(self, rho, match):
        lay = RegisterLayout([("A", 2), ("E", 2)])
        with pytest.raises(ValidationError, match=match):
            conditional_entropy(rho, lay, ("A",), ("E",))

    def test_parts_must_partition(self):
        rho = np.eye(4) / 4
        lay = RegisterLayout([("A", 2), ("E", 2)])
        with pytest.raises(ValidationError):
            conditional_entropy(rho, lay, ("A",), ("A",))
        with pytest.raises(ValidationError):
            conditional_entropy(rho, lay, ("A",), ())


class TestBinaryEntropy:
    def test_anchors(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_evaluation(self):
        # -x log2 x - (1-x) log2 (1-x) at x = 0.11
        assert binary_entropy(0.11) == pytest.approx(0.49993, abs=1e-4)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(1.5)
        with pytest.raises(DomainError):
            binary_entropy(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range(self, x):
        assert 0.0 <= binary_entropy(x) <= 1.0 + 1e-12
