"""Entropy-bound, pairing-search, closed-form, and oracle tests.

The exact oracle (explicit eigendecomposition of the classical-quantum
state) is the reference every bound is checked against; the dilated
simulation provides a second, independent entropy route.
"""

import itertools
import math

import numpy as np
import pytest

from sqcka import keyrate, protocol, qmath
from sqcka.attacks import (
    ConditionalChannelTable,
    DepolarizingParams,
    attack_from_tables,
    depolarizing_attack,
    depolarizing_tables,
    identity_attack,
)
from sqcka.keyrate import (
    EntropyBoundInput,
    PairedTerm,
    PairingPlan,
    complement_plan,
    depolarizing_entropy_lower,
    depolarizing_keyrate,
    exact_entropy_oracle,
    identity_plan,
    keyrate_lower,
    lambda_term,
    pairing_maximize,
    qbob,
    terms_from_plan,
    theorem1_entropy_bound,
)
from sqcka.qmath import DomainError, ValidationError


def entropy_from_sift_state(state, layout):
    """S(A|E) computed from a simulated key-round state.

    Independent of the oracle: slices the sender bit, reduces over the
    measured registers via small Gram matrices, and assembles
    S(AE) - S(E) from the spectra.  Assumes the environment registers come
    after T and B in the layout, as the round builders arrange them.
    """
    dims = layout.dims
    env_total = int(np.prod([dims[i] for i, lab in enumerate(layout.labels)
                             if lab not in ("A", "T", "B")]))
    psi = np.moveaxis(state.amps.reshape(dims), layout.axis("A"), 0)
    mats = [psi[a].reshape(-1, env_total) for a in (0, 1)]
    spectra = [np.linalg.eigvalsh(m @ m.conj().T) for m in mats]
    s_ae = qmath.entropy_of_spectrum(np.concatenate(spectra))
    stacked = np.vstack(mats)
    s_e = qmath.entropy_of_spectrum(np.linalg.eigvalsh(stacked @ stacked.conj().T))
    return s_ae - s_e


def random_table_attack(rng, n, dense_gram=True):
    d = 1 << n
    fwd = rng.dirichlet(np.ones(d), size=2)
    bwd = rng.dirichlet(np.ones(d), size=(2, d))
    if dense_gram:
        dim = 2 * d * d
        vecs = rng.normal(size=(dim, rng.integers(2, dim + 1)))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        gram = (vecs @ vecs.T).reshape(2, d, d, 2, d, d)
    else:
        gram = None
    return attack_from_tables(ConditionalChannelTable(fwd, bwd), gram)


class TestLambdaTerm:
    def test_noiseless_pair_saturates(self):
        assert lambda_term(PairedTerm(0.5, 0.5, 0.5)) == pytest.approx(1.0)

    def test_orthogonal_symmetric_pair(self):
        assert lambda_term(PairedTerm(0.3, 0.3, 0.0)) == pytest.approx(0.5)

    def test_depolarizing_reference_values(self):
        # n=2, Q=0.1, Q~=0.2 all-equal pair in the global convention
        lam = lambda_term(PairedTerm(0.79 / 2, 0.79 / 2, 0.36))
        assert lam == pytest.approx(0.5 * (1 + 0.72 / 0.79), abs=1e-12)
        assert lam == pytest.approx(0.9557, abs=1e-4)

    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError):
            lambda_term(PairedTerm(0.0, 0.0, 0.0))

    def test_cauchy_schwarz_enforced(self):
        with pytest.raises(ValidationError):
            PairedTerm(0.25, 0.25, 0.3)


class TestTheorem1Bound:
    def test_decoupled_eavesdropper_gives_one_bit(self):
        inp = EntropyBoundInput(1.0, (PairedTerm(0.5, 0.5, 0.5),))
        assert theorem1_entropy_bound(inp) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_symmetric_terms_give_zero(self):
        terms = tuple(PairedTerm(0.25, 0.25, 0.0) for _ in range(2))
        assert theorem1_entropy_bound(EntropyBoundInput(1.0, terms)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_terms_skip(self):
        inp = EntropyBoundInput(1.0, (PairedTerm(0.5, 0.5, 0.5),
                                      PairedTerm(0.0, 0.0, 0.0)))
        assert theorem1_entropy_bound(inp) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            EntropyBoundInput(2.0, (PairedTerm(0.5, 0.5, 0.0),))

    def test_depolarizing_reference_value(self):
        # complement pairing on the n=3, Q=Q~=0.2 table, global convention
        params = DepolarizingParams(0.2, 0.2, 3)
        atk = depolarizing_attack(params)
        w = depolarizing_tables(params).weights / 2.0  # normalize total mass to 1
        inp = terms_from_plan(w, atk.gram, complement_plan(8))
        bound = theorem1_entropy_bound(inp)
        assert bound == pytest.approx(0.549, abs=2e-3)
        oracle = exact_entropy_oracle(atk)
        assert bound <= oracle + 1e-9


class TestPairingSearch:
    def test_identity_attack_identity_plan(self):
        atk = identity_attack(2)
        w = np.einsum("ab,abc->abc", atk.tables.forward, atk.tables.backward)
        plan, val = pairing_maximize(w, atk.gram)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert val <= exact_entropy_oracle(atk) + 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_complement_is_globally_optimal_for_depolarizing(self, n):
        params = DepolarizingParams(0.15, 0.25, n)
        atk = depolarizing_attack(params)
        w = depolarizing_tables(params).weights
        plan, best = pairing_maximize(w, atk.gram)
        assert plan.strategy == "exhaustive"  # d <= EXHAUSTIVE_DIM
        comp = terms_from_plan(w, atk.gram, complement_plan(1 << n))
        assert best == pytest.approx(theorem1_entropy_bound(comp), abs=1e-12)
        assert best == pytest.approx(
            depolarizing_entropy_lower(params, "theorem_exact"), abs=1e-12)

    def test_dominates_identity_plan(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            atk = random_table_attack(rng, 2)
            w = np.einsum("ab,abc->abc", atk.tables.forward, atk.tables.backward)
            _, best = pairing_maximize(w, atk.gram)
            ident = theorem1_entropy_bound(
                terms_from_plan(w, atk.gram, identity_plan(4)))
            assert best >= ident - 1e-12

    def test_greedy_matches_exhaustive_on_concentrated_weights(self):
        # one dominant branch per sender bit; the rank matching must pair them
        w = np.full((2, 4, 4), 1e-3)
        w[0, 1, 2] = 1.0
        w[1, 3, 0] = 1.0
        w /= w.sum(axis=(1, 2), keepdims=True)
        gram = np.array(np.eye(32).reshape(2, 4, 4, 2, 4, 4))
        gram[0, 1, 2, 1, 3, 0] = gram[1, 3, 0, 0, 1, 2] = 0.9
        plan_x, best_x = pairing_maximize(w, gram)
        assert plan_x.strategy == "exhaustive"
        _, best_g = keyrate._greedy_search(w, gram)
        assert best_g == pytest.approx(best_x, abs=1e-10)

    def test_every_plan_is_a_lower_bound(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            atk = random_table_attack(rng, 1)
            oracle = exact_entropy_oracle(atk)
            w = np.einsum("ab,abc->abc", atk.tables.forward, atk.tables.backward)
            for pi1 in itertools.permutations(range(2)):
                for pi2 in itertools.permutations(range(2)):
                    plan = PairingPlan(pi1, pi2)
                    bound = theorem1_entropy_bound(terms_from_plan(w, atk.gram, plan))
                    assert bound <= oracle + 1e-9


class TestDepolarizingClosedForms:
    def test_noiseless_modes(self):
        p = DepolarizingParams(0.0, 0.0, 3)
        assert depolarizing_entropy_lower(p, "paper_literal") == \
            pytest.approx(0.5, abs=1e-12)
        assert depolarizing_entropy_lower(p, "theorem_exact") == \
            pytest.approx(1.0, abs=1e-12)

    def test_reference_points(self):
        assert depolarizing_entropy_lower(DepolarizingParams(0.2, 0.2, 3),
                                          "theorem_exact") == \
            pytest.approx(0.549, abs=2e-3)
        assert depolarizing_entropy_lower(DepolarizingParams(0.25, 0.0, 3),
                                          "theorem_exact") == \
            pytest.approx(0.671, abs=2e-3)

    def test_factor_two_everywhere(self):
        for n in (1, 4, 8):
            for q in np.linspace(0, 1, 11):
                for qt in np.linspace(0, 1, 11):
                    p = DepolarizingParams(q, qt, n)
                    lit = depolarizing_entropy_lower(p, "paper_literal")
                    thm = depolarizing_entropy_lower(p, "theorem_exact")
                    assert thm == 2.0 * lit

    def test_monotone_in_both_strengths(self):
        grid = np.arange(0.0, 0.9 + 1e-9, 0.05)
        for mode in keyrate.MODES:
            vals = np.array([[depolarizing_entropy_lower(
                DepolarizingParams(q, qt, 3), mode) for qt in grid] for q in grid])
            assert (np.diff(vals, axis=0) <= 1e-12).all()
            assert (np.diff(vals, axis=1) <= 1e-12).all()

    def test_matches_pairing_bound(self):
        for (q, qt, n) in ((0.1, 0.2, 2), (0.3, 0.05, 3), (0.7, 0.7, 1)):
            params = DepolarizingParams(q, qt, n)
            atk = depolarizing_attack(params)
            w = depolarizing_tables(params).weights
            bound = theorem1_entropy_bound(
                terms_from_plan(w, atk.gram, complement_plan(1 << n)))
            assert bound == pytest.approx(
                depolarizing_entropy_lower(params, "theorem_exact"), abs=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            depolarizing_entropy_lower(DepolarizingParams(0, 0, 1), "exactish")


class TestKeyRate:
    def test_qbob(self):
        assert qbob(0.0) == 0.0
        assert qbob(0.2) == pytest.approx(0.1)
        assert qbob(1.0) == 0.5
        with pytest.raises(DomainError):
            qbob(1.2)

    def test_perfect_channel(self):
        rep = keyrate_lower(1.0, 0.0)
        assert rep.r_min == 1.0 and rep.leakage == 0.0

    def test_composed_reference_point(self):
        rep = depolarizing_keyrate(DepolarizingParams(0.2, 0.2, 3), "theorem_exact")
        assert rep.leakage == pytest.approx(qmath.binary_entropy(0.1), abs=1e-12)
        assert rep.r_min == pytest.approx(0.080, abs=3e-3)

    def test_negative_rate_reported(self):
        rep = depolarizing_keyrate(DepolarizingParams(0.25, 0.25, 3), "paper_literal")
        assert rep.r_min < 0.0

    def test_rate_identity(self):
        rep = keyrate_lower(0.3, 0.4, mode="theorem_exact")
        assert rep.r_min == rep.s_lower - rep.leakage

    def test_entropy_clamped_in_report(self):
        rep = keyrate_lower(-1e-15, 0.1)
        assert rep.s_lower == 0.0


class TestExactOracle:
    def test_identity_attack_is_one(self):
        assert exact_entropy_oracle(identity_attack(2)) == \
            pytest.approx(1.0, abs=1e-10)

    def test_distinguishing_attack_is_zero(self):
        # deterministic tables with orthonormal Eve vectors: Eve reads the bit
        atk = attack_from_tables(identity_attack(2).tables)
        assert exact_entropy_oracle(atk) == pytest.approx(0.0, abs=1e-10)

    def test_oracle_dominates_closed_form(self):
        params = DepolarizingParams(0.1, 0.2, 2)
        atk = depolarizing_attack(params)
        oracle = exact_entropy_oracle(atk)
        assert oracle >= depolarizing_entropy_lower(params, "theorem_exact") - 1e-9

    def test_oracle_matches_dilated_simulation(self):
        for (q, qt, n) in ((0.1, 0.2, 1), (0.3, 0.1, 2)):
            atk = depolarizing_attack(DepolarizingParams(q, qt, n))
            pp = protocol.ProtocolParams(n=n)
            state, layout, _ = protocol.run_round_exact(pp, atk, 1)
            sim_entropy = entropy_from_sift_state(state, layout)
            assert sim_entropy == pytest.approx(exact_entropy_oracle(atk), abs=1e-9)

    def test_bound_below_oracle_random_attacks(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            atk = random_table_attack(rng, n)
            oracle = exact_entropy_oracle(atk)
            w = np.einsum("ab,abc->abc", atk.tables.forward, atk.tables.backward)
            for plan in (identity_plan(1 << n), complement_plan(1 << n)):
                bound = theorem1_entropy_bound(terms_from_plan(w, atk.gram, plan))
                assert bound <= oracle + 1e-9
            _, best = pairing_maximize(w, atk.gram)
            assert best <= oracle + 1e-9
