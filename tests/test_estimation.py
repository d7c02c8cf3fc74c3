"""Estimator tests on constructed tallies and analytic inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqcka.attacks import (DepolarizingParams, depolarizing_attack,
                           eve_catalogue)
from sqcka.estimation import (
    COUNT_CAP,
    InconsistencyWarning,
    NoDataError,
    TallyCounts,
    bob_disagreement_rates,
    estimate_branch_norms,
    estimate_channel_conditionals,
    estimate_p_ghz,
    estimate_re_overlap,
    hoeffding_radius,
    tally_from_text,
    tally_to_text,
)
from sqcka.protocol import round_statistics
from sqcka.qmath import CapacityError, DomainError, ValidationError


class TestHoeffding:
    def test_formula(self):
        # sqrt(ln(2/delta) / (2 m))
        assert hoeffding_radius(1000, 0.98) == \
            pytest.approx(math.sqrt(math.log(2 / 0.02) / 2000), abs=1e-15)
        assert hoeffding_radius(1000, 0.98) == pytest.approx(0.047985, abs=1e-6)
        assert hoeffding_radius(1000, 0.95) == pytest.approx(0.042947, abs=1e-6)

    def test_no_data(self):
        with pytest.raises(NoDataError):
            hoeffding_radius(0, 0.99)

    def test_confidence_domain(self):
        with pytest.raises(DomainError):
            hoeffding_radius(10, 1.0)


class TestPGhzEstimate:
    def test_perfect_counts(self):
        t = TallyCounts(n=1, ghz_pass=1000, ghz_total=1000)
        est = estimate_p_ghz(t, confidence=0.98)
        assert est.value == 1.0
        assert est.radius == pytest.approx(hoeffding_radius(1000, 0.98))
        assert est.confidence == 0.98

    def test_zero_tests_error(self):
        with pytest.raises(NoDataError):
            estimate_p_ghz(TallyCounts(n=1))


class TestBranchNorms:
    def test_noiseless(self):
        z = np.zeros((2, 4), dtype=np.int64)
        z[0, 0] = z[1, 3] = 500
        t = TallyCounts(n=2, z_ctrl_counts=z)
        q = estimate_branch_norms(t)
        assert q[0, 0] == q[1, 3] == pytest.approx(1.0)
        assert q.sum() == pytest.approx(2.0)

    def test_uniform_tallies(self):
        t = TallyCounts(n=2, z_ctrl_counts=np.full((2, 4), 100, dtype=np.int64))
        q = estimate_branch_norms(t)
        np.testing.assert_allclose(q, 2.0 / 8.0)

    def test_no_data(self):
        with pytest.raises(NoDataError):
            estimate_branch_norms(TallyCounts(n=2))


class TestReOverlap:
    def test_noiseless(self):
        assert estimate_re_overlap(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_orthogonal_branches(self):
        assert estimate_re_overlap(0.5, 1.0, 1.0) == pytest.approx(0.0)

    def test_depolarizing_reference(self):
        # n=2, Q=0.1, Q~=0.2: (4*0.755 - 0.79 - 0.79)/2 = 0.72
        assert estimate_re_overlap(0.755, 0.79, 0.79) == pytest.approx(0.72,
                                                                       abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_on_analytic_inputs(self, n):
        # closing the loop with zero radius: analytic p_ghz and branch norms
        # recover exactly twice the global-convention catalogue overlap
        for q in np.linspace(0, 1, 7):
            for qt in np.linspace(0, 1, 7):
                params = DepolarizingParams(q, qt, n)
                stats = round_statistics(depolarizing_attack(params), 0)
                d = 1 << n
                re = estimate_re_overlap(stats.p_ghz, stats.branch_norms[0, 0],
                                         stats.branch_norms[1, d - 1])
                cat = eve_catalogue(params)
                assert re == pytest.approx(2.0 * cat.cross_overlap, abs=1e-12)

    def test_inconsistent_inputs_warn(self):
        with pytest.warns(InconsistencyWarning):
            estimate_re_overlap(1.0, 0.5, 0.5)

    def test_agrees_with_direct_overlap_sum_for_table_attacks(self):
        # the alternative analytic route sums the weighted cross overlaps
        # directly from the tables and gram; inverting the GHZ-pass
        # decomposition must land on the same value
        from sqcka.attacks import ConditionalChannelTable, attack_from_tables

        rng = np.random.default_rng(44)
        for _ in range(10):
            d = 4
            fwd = rng.dirichlet(np.ones(d), size=2)
            bwd = rng.dirichlet(np.ones(d), size=(2, d))
            atk = attack_from_tables(ConditionalChannelTable(fwd, bwd))
            stats = round_statistics(atk, 0)
            inverted = estimate_re_overlap(stats.p_ghz, stats.branch_norms[0, 0],
                                           stats.branch_norms[1, d - 1])
            assert inverted == pytest.approx(stats.re_overlap, abs=1e-12)


class TestChannelConditionals:
    def test_noiseless_rows(self):
        s = np.zeros((2, 4), dtype=np.int64)
        s[0, 0] = s[1, 3] = 700
        t = TallyCounts(n=2, sift_joint_counts=s, sift_total=1400)
        p = estimate_channel_conditionals(t)
        np.testing.assert_allclose(p[0], [1, 0, 0, 0])
        np.testing.assert_allclose(p[1], [0, 0, 0, 1])

    def test_empty_row_error(self):
        s = np.zeros((2, 2), dtype=np.int64)
        s[0, 0] = 5
        t = TallyCounts(n=1, sift_joint_counts=s, sift_total=5)
        with pytest.raises(NoDataError):
            estimate_channel_conditionals(t)


class TestAlphaSystem:
    """The Gram aggregates G_ac the entropy bound consumes are the branch norms."""

    def test_depolarizing_aggregates(self):
        params = DepolarizingParams(0.1, 0.2, 2)
        atk = depolarizing_attack(params)
        g = round_statistics(atk, 0).branch_norms
        # diagonal-gram specialization: G_ac = sum_b p(b|a) p'(c|ab)
        expected = np.einsum("ab,abc->ac", atk.tables.forward, atk.tables.backward)
        np.testing.assert_allclose(g, expected, atol=1e-12)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)


class TestDisagreement:
    def test_noiseless_zero(self):
        s = np.zeros((2, 4), dtype=np.int64)
        s[0, 0] = s[1, 3] = 100
        t = TallyCounts(n=2, sift_joint_counts=s, sift_total=200)
        np.testing.assert_allclose(bob_disagreement_rates(t), [0.0, 0.0])

    def test_single_receiver_flip(self):
        s = np.zeros((2, 2), dtype=np.int64)
        s[0, 1] = 25  # sender 0, receiver read 1
        s[0, 0] = 75
        t = TallyCounts(n=1, sift_joint_counts=s, sift_total=100)
        np.testing.assert_allclose(bob_disagreement_rates(t), [0.25])

    def test_no_data(self):
        with pytest.raises(NoDataError):
            bob_disagreement_rates(TallyCounts(n=1))


class TestTallies:
    def test_merge_associative_commutative(self):
        rng = np.random.default_rng(40)
        parts = []
        for _ in range(3):
            z = rng.integers(0, 50, size=(2, 4))
            s = rng.integers(0, 50, size=(2, 4))
            parts.append(TallyCounts(n=2, ghz_pass=int(rng.integers(0, 10)),
                                     ghz_total=10, z_ctrl_counts=z,
                                     sift_joint_counts=s, sift_total=int(s.sum())))
        a, b, c = parts
        left = (a + b) + c
        right = a + (b + c)
        swapped = c + (b + a)
        for other in (right, swapped):
            assert left.ghz_pass == other.ghz_pass
            np.testing.assert_array_equal(left.z_ctrl_counts, other.z_ctrl_counts)
            np.testing.assert_array_equal(left.sift_joint_counts,
                                          other.sift_joint_counts)

    def test_merge_requires_same_n(self):
        with pytest.raises(ValidationError):
            TallyCounts(n=1) + TallyCounts(n=2)

    def test_invariant_checks(self):
        for fields, msg in [
                (dict(ghz_pass=5, ghz_total=3), "ghz_pass exceeds ghz_total"),
                (dict(sift_joint_counts=np.ones((2, 2)), sift_total=3), "do not sum"),
                (dict(ghz_total=-1), "negative tally counts"),
                (dict(z_ctrl_counts=[[0, -1], [0, 0]]), "negative tally counts"),
                (dict(z_ctrl_counts=np.zeros((2, 3))), r"shape \(2, 2\)")]:
            with pytest.raises(ValidationError, match=msg):
                TallyCounts(n=1, **fields)

    def test_text_round_trip(self):
        z = np.array([[3, 0], [0, 7]], dtype=np.int64)
        s = np.array([[11, 1], [2, 13]], dtype=np.int64)
        t = TallyCounts(n=1, ghz_pass=9, ghz_total=10, z_ctrl_counts=z,
                        sift_joint_counts=s, sift_total=27)
        back = tally_from_text(tally_to_text(t))
        assert back.n == 1 and back.ghz_pass == 9 and back.ghz_total == 10
        np.testing.assert_array_equal(back.z_ctrl_counts, z)
        np.testing.assert_array_equal(back.sift_joint_counts, s)
        assert back.sift_total == 27

    @pytest.mark.parametrize("line,where", [
        ("zctrl 0,-1 5", "line 2: index"),
        ("zctrl 0,7 5", "line 2: index"),
        ("sift 2,0 5", "line 2: index"),
        ("zctrl 0,1,1 5", "line 2: cannot parse"),
        ("ghz pass many", "line 2: cannot parse"),
        ("zctrl 0,1 5\nzctrl 0,1 6", "line 3: duplicates line 2"),
        ("ghz total 5\nghz total 6", "line 3: duplicates line 2"),
        ("tally n 1", "line 2: duplicates line 1"),
    ], ids=["negative-string", "string-past-d", "bit-past-1", "three-indices",
            "bad-count", "duplicate-zctrl", "duplicate-ghz-total", "duplicate-n"])
    def test_text_boundary_errors(self, line, where):
        with pytest.raises(ValidationError, match=where):
            tally_from_text(f"tally n 1\n{line}\n")

    def test_count_over_the_cap_refused(self):
        assert 2 * 10 ** 12 > COUNT_CAP
        with pytest.raises(ValidationError,
                           match=f"^line 2: count 2000000000000 outside 0..{COUNT_CAP}$"):
            tally_from_text("tally n 1\nghz total 2000000000000\n")

    def test_text_errors(self):
        with pytest.raises(ValidationError):
            tally_from_text("ghz pass 3\n")  # no n line
        with pytest.raises(ValidationError):
            tally_from_text("tally n 1\nwhat is this\n")
        for bad_n in ("0", "-1"):
            with pytest.raises(ValidationError, match="line 1: n="):
                tally_from_text(f"tally n {bad_n}\n")

    @pytest.mark.parametrize("n", [0, -1, -10**6])
    def test_n_below_one_rejected(self, n):
        # no empty d = 1 tables, and no bare "negative shift count"
        with pytest.raises(ValidationError, match=f"^n={n} is not >= 1$"):
            TallyCounts(n=n)
        with pytest.raises(ValidationError, match=f"^line 2: n={n} is not >= 1$"):
            tally_from_text(f"ghz pass 0\ntally n {n}\n")

    @pytest.mark.parametrize("n", [22, 64, 10**6])
    def test_oversized_n_is_capacity_error(self, n):
        with pytest.raises(CapacityError, match=f"tally n={n}"):
            TallyCounts(n=n)
        with pytest.raises(CapacityError, match=f"line 2: tally n={n}"):
            tally_from_text(f"ghz pass 0\ntally n {n}\n")

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.integers(0, 50), st.integers(0, 50),
        st.lists(st.integers(0, 1000), min_size=2 << n, max_size=2 << n),
        st.lists(st.integers(0, 1000), min_size=2 << n, max_size=2 << n))))
    def test_text_round_trip_property(self, case):
        n, passed, failed, z, sift = case
        d = 1 << n
        t = TallyCounts(n=n, ghz_pass=passed, ghz_total=passed + failed,
                        z_ctrl_counts=np.reshape(z, (2, d)),
                        sift_joint_counts=np.reshape(sift, (2, d)),
                        sift_total=sum(sift))
        text = tally_to_text(t)
        back = tally_from_text(text)
        assert (back.n, back.ghz_pass, back.ghz_total, back.sift_total) == \
            (t.n, t.ghz_pass, t.ghz_total, t.sift_total)
        np.testing.assert_array_equal(back.z_ctrl_counts, t.z_ctrl_counts)
        np.testing.assert_array_equal(back.sift_joint_counts, t.sift_joint_counts)
        assert tally_to_text(back) == text
