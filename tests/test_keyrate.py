"""Entropy-bound, pairing-search, closed-form, and oracle tests.

The exact oracle (explicit eigendecomposition of the classical-quantum
state) is the reference every bound is checked against; the dilated
simulation provides a second, independent entropy route.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import a3_random_corpus, dense_amps
from sqcka import attacks, keyrate, protocol, qmath
from sqcka.attacks import (
    DepolarizingParams,
    attack_from_tables,
    depolarizing_attack,
    depolarizing_tables,
    identity_attack,
    random_table_attack,
)
from sqcka.keyrate import (
    MAX_PAIRING_EVALS,
    PairingPlan,
    complement_plan,
    depolarizing_entropy_lower,
    depolarizing_keyrate,
    exact_entropy_oracle,
    identity_plan,
    keyrate_lower,
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
    psi = np.moveaxis(dense_amps(state).reshape(dims), layout.axis("A"), 0)
    mats = [psi[a].reshape(-1, env_total) for a in (0, 1)]
    spectra = [np.linalg.eigvalsh(m @ m.conj().T) for m in mats]
    s_ae = qmath.entropy_of_spectrum(np.concatenate(spectra))
    stacked = np.vstack(mats)
    s_e = qmath.entropy_of_spectrum(np.linalg.eigvalsh(stacked @ stacked.conj().T))
    return s_ae - s_e


def paired_bound(*pairs):
    """Bound of the identity plan on a d = 2 table holding the given pairs.

    Each pair is (q0, q1, re): the weights of branches (0, b, b') and
    (1, b, b') and their raw Re overlap; cells past the pairs have weight 0.
    """
    w = np.zeros((2, 2, 2))
    gram = np.eye(8).reshape(2, 2, 2, 2, 2, 2)
    for k, (q0, q1, re) in enumerate(pairs):
        b, bp = divmod(k, 2)
        w[:, b, bp] = q0, q1
        g = re / math.sqrt(q0 * q1) if re else 0.0
        gram[0, b, bp, 1, b, bp] = gram[1, b, bp, 0, b, bp] = g
    return theorem1_entropy_bound(terms_from_plan(w, gram, identity_plan(2)))


def scalar_bound(w, gram, plan):
    """Reference: the Theorem-1 bound by a Python loop over the paired branches."""
    gram = np.asarray(gram)
    total = 0.0
    for b, bp in itertools.product(range(w.shape[1]), repeat=2):
        c, cp = plan.pi1[b], plan.pi2[bp]
        q0, q1 = w[0, b, bp], w[1, c, cp]
        s = q0 + q1
        if s > 0.0:
            re = math.sqrt(q0 * q1) * gram[0, b, bp, 1, c, cp]
            lam = min(0.5 * (1.0 + math.sqrt((q0 - q1) ** 2 + 4.0 * re ** 2) / s), 1.0)
            total += s * (qmath.binary_entropy(q0 / s) - qmath.binary_entropy(lam))
    return total / w.sum()


def unnormalized_entropy(x, axis=-1):
    """-sum x log2 x over ``axis``, with 0 log 0 = 0."""
    live = x > 0.0
    return -np.sum(np.where(live, x * np.log2(np.where(live, x, 1.0)), 0.0), axis=axis)


def spectral_bound(w, gram, plan):
    """Reference: the Theorem-1 bound from the eigenvalues of each pair's
    explicit 2 x 2 block [[q0, re], [re, q1]], read from the dense Gram.  A
    pair adds H(q0, q1) - H(eigenvalues), H the entropy of unnormalized
    weights, which is s (h(q0 / s) - h(lam)) with s = q0 + q1."""
    d = w.shape[1]
    dense = np.asarray(gram).reshape(2 * d * d, -1)
    b, bp = np.divmod(np.arange(d * d), d)
    c, cp = np.asarray(plan.pi1)[b], np.asarray(plan.pi2)[bp]
    q0, q1 = w[0, b, bp], w[1, c, cp]
    re = np.sqrt(q0 * q1) * dense[b * d + bp, d * d + c * d + cp]
    blocks = np.stack([np.stack([q0, re], axis=-1), np.stack([re, q1], axis=-1)], axis=-2)
    spectrum = np.clip(np.linalg.eigvalsh(blocks), 0.0, None)
    terms = (unnormalized_entropy(np.stack([q0, q1], axis=-1))
             - unnormalized_entropy(spectrum))
    return float(terms.sum() / w.sum())


# The exhaustive search as it was before the evaluator took stacks of plans:
# one scalar evaluation per plan, in a double loop, with its own log2 binary
# entropy.  Kept verbatim as the reference of the stacked search.


def reference_h_vec(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -(xi * np.log2(xi) + (1.0 - xi) * np.log2(1.0 - xi))
    return out


def reference_plan_value(w, gram, pi1, pi2):
    partner = pi1[:, None] * pi1.size + pi2
    q0 = w[0]
    q1 = w[1].reshape(-1)[partner]
    re = np.sqrt(q0 * q1) * gram.cross(np.arange(partner.size).reshape(partner.shape),
                                        partner)
    s = q0 + q1
    live = s > 0.0
    lam = np.full_like(s, 0.5)
    lam[live] = 0.5 * (1.0 + np.sqrt((q0 - q1)[live] ** 2 + 4.0 * re[live] ** 2)
                       / s[live])
    frac = np.zeros_like(s)
    frac[live] = q0[live] / s[live]
    val = s * (reference_h_vec(frac) - reference_h_vec(lam))
    return float(val.sum() / w.sum())


def reference_exhaustive_search(w, g):
    d = w.shape[1]
    best_val = -math.inf
    best = None
    for pi1 in itertools.permutations(range(d)):
        a1 = np.asarray(pi1)
        for pi2 in itertools.permutations(range(d)):
            val = reference_plan_value(w, g, a1, np.asarray(pi2))
            if val > best_val:
                best_val = val
                best = PairingPlan(pi1, pi2, "exhaustive")
    return best, best_val


class TestLambdaTerm:
    """The largest eigenvalue fraction lam of one paired block, read off the
    bound of a single pair of weights (q, q): 1 - h(lam)."""

    def test_noiseless_pair_saturates(self):
        assert paired_bound((0.5, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)  # lam = 1

    def test_orthogonal_symmetric_pair(self):
        assert paired_bound((0.3, 0.3, 0.0)) == pytest.approx(0.0, abs=1e-12)  # lam = 1/2

    def test_depolarizing_reference_values(self):
        # n=2, Q=0.1, Q~=0.2 all-equal pair in the global convention
        bound = paired_bound((0.79 / 2, 0.79 / 2, 0.36))
        lam = 0.5 * (1 + 0.72 / 0.79)
        assert lam == pytest.approx(0.9557, abs=1e-4)
        assert bound == pytest.approx(1.0 - qmath.binary_entropy(lam), abs=1e-12)

    def test_cauchy_schwarz_enforced(self):
        # |G| = 1.2: no Gram holds it, so it is refused when the Gram is built
        with pytest.raises(ValidationError, match="not PSD"):
            paired_bound((0.25, 0.25, 0.3))

    def test_cauchy_schwarz_is_stricter_than_the_psd_tolerance(self):
        # |G| = 1 + 5e-10 is PSD within GRAM_PSD_ATOL, but |Re| exceeds
        # sqrt(q0 q1) by 1.25e-10, over the pairs' slack CS_ATOL
        assert 5e-10 < attacks.GRAM_PSD_ATOL and 0.25 * 5e-10 > keyrate.CS_ATOL
        with pytest.raises(ValidationError, match="exceeds sqrt"):
            paired_bound((0.25, 0.25, 0.25 * (1.0 + 5e-10)))


class TestTheorem1Bound:
    def test_decoupled_eavesdropper_gives_one_bit(self):
        assert paired_bound((0.5, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_symmetric_terms_give_zero(self):
        assert paired_bound((0.25, 0.25, 0.0), (0.25, 0.25, 0.0)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_terms_skip(self):
        assert paired_bound((0.5, 0.5, 0.5), (0.0, 0.0, 0.0)) == \
            pytest.approx(1.0, abs=1e-12)
        w = np.zeros((2, 2, 2))
        w[:, 0, 0] = 0.5
        ones = np.ones((2, 2, 2, 2, 2, 2))
        bound = theorem1_entropy_bound(terms_from_plan(w, ones, complement_plan(2)))
        assert bound == pytest.approx(0.0, abs=1e-12)  # (0,0,0) pairs with a 0

    def test_normalization_is_the_total_weight(self):
        # scaling every weight leaves the bound unchanged
        one = paired_bound((0.5, 0.5, 0.5), (0.25, 0.25, 0.0))
        assert paired_bound((1.0, 1.0, 1.0), (0.5, 0.5, 0.0)) == \
            pytest.approx(one, abs=1e-12)
        assert one == pytest.approx(1.0 / 1.5, abs=1e-12)

    @pytest.mark.parametrize("bad,match", [
        (-1e-9, "non-negative"), (math.nan, "finite"), (math.inf, "finite")])
    def test_bad_weights_rejected(self, bad, match):
        w = np.full((2, 2, 2), 0.125)
        w[1, 1, 0] = bad
        for call in (lambda: terms_from_plan(w, np.ones((2, 2, 2) * 2),
                                             identity_plan(2)),
                     lambda: pairing_maximize(w, np.ones((2, 2, 2) * 2))):
            with pytest.raises(ValidationError, match=match):
                call()

    def test_shapes_checked(self):
        w = np.full((2, 2, 2), 0.125)
        with pytest.raises(ValidationError, match="weights must be"):
            terms_from_plan(w[:, :1], np.ones((2, 2, 2) * 2), identity_plan(2))
        with pytest.raises(ValidationError, match="gram must have shape"):
            terms_from_plan(w, np.ones((2, 4, 4) * 2), identity_plan(2))
        with pytest.raises(ValidationError, match="does not fit d = 2"):
            terms_from_plan(w, np.ones((2, 2, 2) * 2), identity_plan(4))
        with pytest.raises(ValidationError, match="zero total mass"):
            terms_from_plan(0 * w, np.ones((2, 2, 2) * 2), identity_plan(2))

    def test_tiny_negative_weights_clamped(self):
        # within -1e-12 a weight counts as 0: no sqrt of a negative product
        w = np.full((2, 2, 2), 0.125)
        w[0, 1, 1] = -1e-13
        gram = np.ones((2, 2, 2) * 2)
        clamped = np.clip(w, 0.0, None)
        with np.errstate(invalid="raise"):
            inp = terms_from_plan(w, gram, identity_plan(2))
            _, best = pairing_maximize(w, gram)
        assert (inp.weights >= 0).all()
        assert theorem1_entropy_bound(inp) == theorem1_entropy_bound(
            terms_from_plan(clamped, gram, identity_plan(2)))
        assert best == pairing_maximize(clamped, gram)[1]

    def test_matches_scalar_reference(self):
        # summation order differs, so agreement is to rounding, not exact
        rng = np.random.default_rng(34)
        for n in (1, 2, 3):
            d = 1 << n
            for _ in range(4):
                atk = random_table_attack(rng, n)
                w = atk.tables.weights
                plans = [identity_plan(d), complement_plan(d),
                         PairingPlan(tuple(rng.permutation(d)), tuple(rng.permutation(d)))]
                for plan in plans:
                    bound = theorem1_entropy_bound(terms_from_plan(w, atk.gram, plan))
                    assert bound == pytest.approx(scalar_bound(w, atk.gram, plan),
                                                  abs=1e-12)

    def test_matches_spectral_reference(self):
        # pair terms from eigvalsh of the explicit blocks, not the closed form
        rng = np.random.default_rng(35)
        atks = [random_table_attack(rng, n) for n in (1, 2, 3) for _ in range(3)]
        atks += [depolarizing_attack(DepolarizingParams(q, qt, n))
                 for n in (1, 2, 3) for q, qt in ((0.05, 0.1), (0.3, 0.2))]
        for atk in atks:
            w = atk.tables.weights
            d = atk.d
            plans = [identity_plan(d), complement_plan(d), keyrate._greedy_plan(w),
                     PairingPlan(tuple(rng.permutation(d)), tuple(rng.permutation(d)))]
            for plan in plans:
                bound = theorem1_entropy_bound(terms_from_plan(w, atk.gram, plan))
                assert abs(bound - spectral_bound(w, atk.gram, plan)) <= 1e-12

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
        w = atk.tables.weights
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

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_greedy_two_opt_reaches_closed_form_for_depolarizing(self, n):
        # above EXHAUSTIVE_DIM; the 2-opt batches keep the search's heap small
        params = DepolarizingParams(0.15, 0.25, n)
        atk = depolarizing_attack(params)
        w = depolarizing_tables(params).weights
        tracemalloc.start()
        try:
            plan, best = pairing_maximize(w, atk.gram)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.strategy == "greedy2opt"
        assert best == pytest.approx(
            depolarizing_entropy_lower(params, "theorem_exact"), abs=1e-12)
        assert peak < 8 << 20

    def test_dominates_identity_plan(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            atk = random_table_attack(rng, 2)
            w = atk.tables.weights
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
        _, best_g = keyrate._greedy_search(w, attacks.validate_gram(gram, 4))
        assert best_g == pytest.approx(best_x, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 3])
    def test_gram_no_vectors_realize_rejected(self, n):
        # |G| = 5 between the two all-equal branches: no pair of unit vectors
        params = DepolarizingParams(0.3, 0.3, n)
        atk = depolarizing_attack(params)
        gram = np.array(np.asarray(atk.gram))
        last = (1 << n) - 1
        gram[0, 0, 0, 1, last, last] = gram[1, last, last, 0, 0, 0] = 5.0
        with pytest.raises(ValidationError, match="not PSD"):
            pairing_maximize(atk.tables.weights, gram)
        with pytest.raises(ValidationError, match="not PSD"):
            terms_from_plan(atk.tables.weights, gram, complement_plan(1 << n))

    def test_every_plan_is_a_lower_bound(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            atk = random_table_attack(rng, 1)
            oracle = exact_entropy_oracle(atk)
            w = atk.tables.weights
            for pi1 in itertools.permutations(range(2)):
                for pi2 in itertools.permutations(range(2)):
                    plan = PairingPlan(pi1, pi2)
                    bound = theorem1_entropy_bound(terms_from_plan(w, atk.gram, plan))
                    assert bound <= oracle + 1e-9


class TestStackedEvaluator:
    """The evaluator over stacks of plans against itself, one plan at a
    time, and the stacked exhaustive search against the scalar loop."""

    @staticmethod
    def weights_with_empty_pairs(atk):
        # zero weights on (0, 0, .) and (1, ., 0): some pairs get s = 0
        w = np.array(atk.tables.weights)
        w[0, 0] = 0.0
        w[1, :, 0] = 0.0
        return w

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_scores_bitwise_as_single_plans(self, n):
        rng = np.random.default_rng(40 + n)
        d = 1 << n
        rand = random_table_attack(rng, n)
        ident = identity_attack(n)
        cases = [(rand.tables.weights, rand.gram),
                 (self.weights_with_empty_pairs(rand), rand.gram),
                 (ident.tables.weights, ident.gram)]
        pi1 = np.array([rng.permutation(d) for _ in range(6)] + [np.arange(d)])
        pi2 = np.array([rng.permutation(d) for _ in range(6)] + [np.arange(d)])
        for w, g in cases:
            alone = [keyrate._plan_value(w, g, a, b) for a, b in zip(pi1, pi2)]
            assert all(type(v) is float for v in alone)
            np.testing.assert_array_equal(keyrate._plan_value(w, g, pi1, pi2), alone)
            # one pi1 against a stack of pi2, as the exhaustive search calls it
            row = [keyrate._plan_value(w, g, pi1[0], b) for b in pi2]
            np.testing.assert_array_equal(keyrate._plan_value(w, g, pi1[0], pi2), row)

    def search_corpus(self):
        # A3's random attacks, then its depolarizing grid at n = 1, 2
        for _, atk, _ in a3_random_corpus():
            yield atk.tables.weights, atk.gram
        for n in (1, 2):
            for q, qt in itertools.product([0.0, 0.1, 0.3, 0.7], repeat=2):
                atk = depolarizing_attack(DepolarizingParams(q, qt, n))
                yield atk.tables.weights, atk.gram

    def test_search_matches_scalar_loop(self):
        count = 0
        for w, g in self.search_corpus():
            plan, best = pairing_maximize(w, g)
            ref_plan, ref_best = reference_exhaustive_search(w, g)
            assert plan == ref_plan
            assert abs(best - ref_best) <= 1e-15
            count += 1
        assert count == 132


# The 2-opt search as it was before it scored its swaps in batches: one
# full evaluation per swap.  Kept verbatim as the reference of the batched
# search, which must return bitwise the same plan, value and count.


def reference_two_opt(w, gram, plan, budget):
    pi1 = np.asarray(plan.pi1).copy()
    pi2 = np.asarray(plan.pi2).copy()
    best = keyrate._plan_value(w, gram, pi1, pi2)
    evals = 1
    d = pi1.size
    improved = True
    while improved and evals < budget:
        improved = False
        for arr in (pi1, pi2):
            for i in range(d):
                for j in range(i + 1, d):
                    if evals >= budget:
                        break
                    arr[i], arr[j] = arr[j], arr[i]
                    val = keyrate._plan_value(w, gram, pi1, pi2)
                    evals += 1
                    if val > best + 1e-15:
                        best = val
                        improved = True
                    else:
                        arr[i], arr[j] = arr[j], arr[i]
    return (PairingPlan(tuple(int(x) for x in pi1), tuple(int(x) for x in pi2),
                        "greedy2opt"), best, evals)


class TestBatchedTwoOpt:
    """The batched 2-opt against the one-swap-at-a-time reference."""

    BUDGETS = (1, 2, 3, 50, 333, 1000, MAX_PAIRING_EVALS)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind,n", [("random", 3), ("random", 4), ("random", 5),
                                        ("depolarizing", 3), ("depolarizing", 4),
                                        ("depolarizing", 5), ("depolarizing", 6)])
    def test_bitwise_as_one_swap_at_a_time(self, kind, n):
        if kind == "random":
            atk = random_table_attack(np.random.default_rng(60 + n), n)
        else:
            atk = depolarizing_attack(DepolarizingParams(0.15, 0.25, n))
        w = keyrate._checked_weights(atk.tables.weights)
        d = 1 << n
        hit = []
        for seed in (identity_plan(d), complement_plan(d), keyrate._greedy_plan(w)):
            for budget in self.BUDGETS:
                plan, best, evals = keyrate._two_opt(w, atk.gram, seed, budget)
                ref_plan, ref_best, ref_evals = reference_two_opt(w, atk.gram, seed, budget)
                assert (plan.pi1, plan.pi2) == (ref_plan.pi1, ref_plan.pi2)
                assert type(best) is float and best == ref_best
                assert evals == ref_evals
                if evals >= budget:
                    hit.append(budget)
        # a sweep is at least 56 swaps long: budgets up to 50 stop every
        # search inside its first one
        assert {1, 2, 3, 50} <= set(hit)

    @staticmethod
    def tie_case(name, n):
        """Weights and Gram whose swaps tie exactly, or nearly: the screen
        must leave those to exact scores."""
        if name == "identity":
            atk = identity_attack(n)
            return atk.tables.weights, atk.gram
        if name == "zeroed":  # random tables with zero rows and columns
            atk = random_table_attack(np.random.default_rng(80 + n), n)
            w = np.array(atk.tables.weights)
            w[0, 0] = w[0, :, 1] = w[1, 2] = w[1, :, 0] = 0.0
            return w, atk.gram
        if name == "faint":  # half the rows 1e-10 as heavy: their swaps gain
            atk = random_table_attack(np.random.default_rng(90 + n), n)  # < 1e-9
            w = np.array(atk.tables.weights)
            w[:, : 1 << (n - 1)] *= 1e-10
            return w, atk.gram
        q, qt = {"q0": (0.0, 0.3), "qtilde0": (0.3, 0.0), "half": (0.5, 0.5)}[name]
        atk = depolarizing_attack(DepolarizingParams(q, qt, n))
        return atk.tables.weights, atk.gram

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["identity", "zeroed", "q0", "qtilde0", "half", "faint"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_bitwise_on_ties(self, name, n):
        w, gram = self.tie_case(name, n)
        w = keyrate._checked_weights(w)
        d = 1 << n
        for seed in (identity_plan(d), complement_plan(d), keyrate._greedy_plan(w)):
            for budget in sorted(self.BUDGETS + (7,)):
                plan, best, evals = keyrate._two_opt(w, gram, seed, budget)
                ref_plan, ref_best, ref_evals = reference_two_opt(w, gram, seed, budget)
                assert (plan.pi1, plan.pi2) == (ref_plan.pi1, ref_plan.pi2)
                assert type(best) is float and best == ref_best
                assert evals == ref_evals

    @pytest.mark.parametrize("kind,n", [("random", 3), ("random", 4), ("random", 5),
                                        ("depolarizing", 3), ("depolarizing", 4),
                                        ("depolarizing", 5), ("depolarizing", 6)])
    def test_screen_within_a_thousandth_of_its_margin(self, kind, n):
        # every swap of two random plans: the line-sum gain against the
        # change in the exactly scored bound
        if kind == "random":
            atk = random_table_attack(np.random.default_rng(70 + n), n)
        else:
            atk = depolarizing_attack(DepolarizingParams(0.15, 0.25, n))
        w = keyrate._checked_weights(atk.tables.weights)
        d = 1 << n
        rng = np.random.default_rng(75 + n)
        i, j = np.triu_indices(d, 1)
        k = np.arange(i.size)
        worst = 0.0
        for _ in range(2):
            pis = np.array([rng.permutation(d), rng.permutation(d)])
            value = keyrate._plan_value(w, atk.gram, pis[0], pis[1])
            for axis in (0, 1):
                lines, partners = np.divmod(np.arange(d * d), d)
                sums = keyrate._LineTerms(w, atk.gram, pis, axis)(lines, partners)
                gain = keyrate._swap_gains(sums.sum(axis=1).reshape(d, d), pis[axis],
                                           i, j, w.sum())
                swapped = np.repeat(pis[None], i.size, axis=0)
                swapped[k, axis, i], swapped[k, axis, j] = pis[axis, j], pis[axis, i]
                exact = np.concatenate([
                    keyrate._plan_value(w, atk.gram, part[:, 0], part[:, 1])
                    for part in np.array_split(swapped, -(-i.size // 64))]) - value
                worst = max(worst, float(np.max(np.abs(gain - exact))))
        assert worst <= keyrate._screen_margin(d) / 1000


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
        rep = keyrate_lower(0.3, 0.4)
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
            w = atk.tables.weights
            for plan in (identity_plan(1 << n), complement_plan(1 << n)):
                bound = theorem1_entropy_bound(terms_from_plan(w, atk.gram, plan))
                assert bound <= oracle + 1e-9
            _, best = pairing_maximize(w, atk.gram)
            assert best <= oracle + 1e-9
