"""The block-structured Eve Gram: splitting, caps, and its consumers.

The exact oracle is checked against the dense oracle it replaced, kept here
verbatim, and the pairing bound against both at the sizes the paper uses.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqcka import attacks, keyrate, protocol
from sqcka.attacks import (
    DepolarizingParams,
    EveGram,
    as_gram,
    attack_from_tables,
    depolarizing_attack,
    depolarizing_gram,
    depolarizing_tables,
    identity_attack,
    joint_az_analytic,
    p_ghz_analytic,
    random_table_attack,
    validate_gram,
)
from sqcka.keyrate import (
    complement_plan,
    depolarizing_entropy_lower,
    exact_entropy_oracle,
    terms_from_plan,
    theorem1_entropy_bound,
)
from sqcka.qmath import (
    CapacityError,
    RegisterLayout,
    ValidationError,
    conditional_entropy,
)


def dense_gram_purification(gram: np.ndarray, d: int) -> np.ndarray:
    """The dense purification the oracle used before the Gram had blocks."""
    flat = np.asarray(gram).reshape(2 * d * d, 2 * d * d)
    w, u = np.linalg.eigh(flat)
    if w.min() < -attacks.GRAM_PSD_ATOL:
        raise ValidationError(f"gram is not PSD (min eig {w.min():.3e})")
    keep = w > 1e-12
    return np.sqrt(w[keep])[:, None] * u[:, keep].conj().T


def dense_entropy_oracle(attack) -> float:
    """The exact oracle before the Gram had blocks, kept verbatim as the
    reference: one purification of the whole Gram, one cq state."""
    d = attack.d
    vecs = dense_gram_purification(np.asarray(attack.gram), d)  # (K, 2 d^2)
    k = vecs.shape[0]
    if 2 * k > keyrate.ORACLE_DIM_CAP:
        raise CapacityError(f"oracle state dim {2 * k} exceeds {keyrate.ORACLE_DIM_CAP}")
    weights = attack.tables.weights / 2.0
    rho = np.zeros((2 * k, 2 * k), dtype=np.complex128)
    for a in range(2):
        va = vecs[:, a * d * d:(a + 1) * d * d]
        block = (va * weights[a].reshape(-1)) @ va.conj().T
        rho[a * k:(a + 1) * k, a * k:(a + 1) * k] = block
    layout = RegisterLayout([("A", 2), ("E", k)])
    return conditional_entropy(rho, layout, ("A",), ("E",))


def random_dense_gram(rng, d, rank):
    vecs = rng.normal(size=(2 * d * d, rank))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    return (vecs @ vecs.T).reshape(2, d, d, 2, d, d)


class TestSplit:
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    def test_dense_round_trip_is_exact(self, n, seed, sparsity):
        # dense -> blocks -> dense gives back the very same array
        rng = np.random.default_rng(seed)
        d = 1 << n
        dense = random_dense_gram(rng, d, int(rng.integers(1, 2 * d * d + 1)))
        flat = dense.reshape(2 * d * d, -1)
        cut = np.triu(rng.random(flat.shape) < sparsity, 1)
        flat[cut | cut.T] = 0.0
        np.testing.assert_array_equal(np.asarray(as_gram(dense, d)), dense)

    def test_components_of_a_dense_gram(self):
        # two disjoint overlaps make two 2 x 2 blocks; the rest is identity
        d = 2
        dense = np.eye(8)
        dense[0, 5] = dense[5, 0] = 0.5
        dense[2, 3] = dense[3, 2] = -0.25
        g = validate_gram(dense.reshape((2, d, d) * 2), d)
        np.testing.assert_array_equal(g.members, [0, 5, 2, 3])
        np.testing.assert_array_equal(g.sizes, [2, 2])
        np.testing.assert_array_equal(g.values, [1, 0.5, 0.5, 1, 1, -0.25, -0.25, 1])

    def test_depolarizing_gram_is_one_block(self):
        p = DepolarizingParams(0.1, 0.2, 10)
        g = depolarizing_gram(p)
        d = p.d
        np.testing.assert_array_equal(g.members, [0, 2 * d * d - 1])
        np.testing.assert_array_equal(g.sizes, [2])
        small = DepolarizingParams(0.1, 0.2, 2)
        assert np.array_equal(np.asarray(as_gram(np.asarray(depolarizing_gram(small)), 4)),
                              np.asarray(depolarizing_gram(small)))

    def test_block_cap_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(attacks, "GRAM_ENTRY_CAP", 3)
        dense = np.eye(8)
        dense[0, 5] = dense[5, 0] = 0.5  # one 2 x 2 block: 4 entries
        with pytest.raises(CapacityError, match="GRAM_ENTRY_CAP"):
            as_gram(dense.reshape((2, 2, 2) * 2), 2)

    def test_bad_blocks_rejected(self):
        with pytest.raises(ValidationError, match="do not match"):
            EveGram(2, (0, 1), (2,), (1.0, 0.0, 1.0))
        with pytest.raises(ValidationError, match="below 2 d"):
            EveGram(2, (0, 8), (2,), (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValidationError, match="distinct branches"):
            EveGram(2, (3, 3), (2,), (1.0, 0.0, 0.0, 1.0))


class TestPurification:
    def test_reproduces_a_gram_of_several_blocks(self):
        # two blocks of random rank, and the identity everywhere else
        rng = np.random.default_rng(72)
        d = 4
        dense = np.eye(2 * d * d)
        for members in (np.array([0, 5, 17, 31]), np.array([2, 3, 20])):
            vecs = rng.normal(size=(members.size, 2))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            dense[np.ix_(members, members)] = vecs @ vecs.T
        gram = validate_gram(dense.reshape((2, d, d) * 2), d)
        assert gram.sizes.tolist() == [4, 3]
        m = attacks.gram_purification(gram)
        np.testing.assert_allclose(m.T @ m, dense, atol=1e-12)


class TestOracle:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(71)
        attacks_checked = [random_table_attack(rng, n) for n in (1, 2, 3) for _ in range(3)]
        attacks_checked += [depolarizing_attack(DepolarizingParams(q, qt, n))
                            for n in (1, 2, 3) for q, qt in ((0.0, 0.0), (0.1, 0.2),
                                                            (0.45, 0.3), (1.0, 1.0))]
        attacks_checked += [identity_attack(n) for n in (1, 2, 3)]
        for atk in attacks_checked:
            assert exact_entropy_oracle(atk) == pytest.approx(dense_entropy_oracle(atk),
                                                              abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_depolarizing_bound_is_tight(self, n):
        # for depolarizing noise the complement-plan bound is the exact S(A|E)
        for q, qt in ((0.05, 0.1), (0.2, 0.3)):
            params = DepolarizingParams(q, qt, n)
            atk = attack_from_tables(depolarizing_tables(params), depolarizing_gram(params))
            w = atk.tables.weights
            bound = theorem1_entropy_bound(terms_from_plan(w, atk.gram,
                                                           complement_plan(1 << n)))
            oracle = exact_entropy_oracle(atk)
            closed = depolarizing_entropy_lower(params, "theorem_exact")
            assert bound == pytest.approx(oracle, abs=1e-10)
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_size_checked_before_any_eigendecomposition(self, monkeypatch):
        # one block of 2049 branches stands for a 4098-dimensional state
        n, k = 6, 2049
        values = np.eye(k)
        values[np.arange(k - 1), np.arange(1, k)] = 0.1
        values[np.arange(1, k), np.arange(k - 1)] = 0.1
        gram = EveGram(1 << n, np.arange(k), (k,), values)
        atk = attack_from_tables(depolarizing_tables(DepolarizingParams(0.1, 0.1, n)),
                                 gram)

        def refuse(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran before the size check")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with pytest.raises(CapacityError, match="oracle state dim 4098"):
            exact_entropy_oracle(atk)


class TestLargeN:
    def test_sampler_at_n10_matches_closed_forms(self):
        params = DepolarizingParams(0.1, 0.2, 10)
        atk = depolarizing_attack(params)
        sampler = protocol.RoundSampler(atk)
        ctrl = protocol.round_statistics(atk, 0)
        assert abs(sampler.p_ghz - p_ghz_analytic(params)) <= 1e-12
        assert abs(ctrl.p_ghz - p_ghz_analytic(params)) <= 1e-12
        d = params.d
        expected = np.array([[joint_az_analytic(a, c, params) for c in range(d)]
                             for a in range(2)])
        assert np.max(np.abs(ctrl.ctrl_az - expected)) <= 1e-12
        # the sampler draws Z-test outcomes from exactly this table
        assert np.max(np.abs(np.diff(sampler._ctrl_cum, prepend=0.0)
                             - expected.ravel())) <= 1e-12

    def test_embedded_route_checks_its_size_first(self):
        # the Gram-embedded state of an n = 6 attack holds 8191 Eve vectors
        atk = attack_from_tables(depolarizing_tables(DepolarizingParams(0.1, 0.1, 6)))
        with pytest.raises(CapacityError, match="purification"):
            protocol.run_round_exact(protocol.ProtocolParams(n=6), atk, 0)

    def test_dense_view_refused_past_the_cap(self):
        gram = depolarizing_gram(DepolarizingParams(0.1, 0.1, 10))
        assert np.shape(gram) == (2, 1024, 1024) * 2  # no densifying
        with pytest.raises(CapacityError, match="GRAM_ENTRY_CAP"):
            np.asarray(gram)
