"""Attack-model tests: closed forms, catalogue identities, dilation behavior."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import catalogue_family, density
from sqcka import attacks, protocol, qmath
from sqcka.attacks import (
    CollectiveAttack,
    ConditionalChannelTable,
    DepolarizingParams,
    attack_from_tables,
    depolarizing_attack,
    depolarizing_gram,
    depolarizing_tables,
    dump_attack_file,
    eve_catalogue,
    identity_attack,
    identity_gram,
    joint_az_analytic,
    load_attack_file,
    p_ghz_analytic,
    validate_gram,
)
from sqcka.qmath import DomainError, ValidationError


class TestParams:
    def test_q_ghz(self):
        p = DepolarizingParams(0.1, 0.2, 2)
        assert p.q_ghz == pytest.approx(0.28, abs=1e-15)
        assert p.d == 4

    def test_range_checks(self):
        with pytest.raises(DomainError):
            DepolarizingParams(-0.1, 0.0, 1)
        with pytest.raises(DomainError):
            DepolarizingParams(0.0, 1.5, 1)
        with pytest.raises(DomainError):
            DepolarizingParams(0.0, 0.0, 0)


class TestConditionalProbabilities:
    def test_forward_values(self):
        fwd = depolarizing_tables(DepolarizingParams(0.2, 0.0, 2)).forward
        assert fwd[0, 0] == pytest.approx(0.85)
        assert fwd[0, 2] == pytest.approx(0.05)
        assert fwd[1, 3] == pytest.approx(0.85)

    def test_forward_noiseless_is_delta(self):
        p = DepolarizingParams(0.0, 0.3, 2)
        tab = depolarizing_tables(p).forward
        np.testing.assert_allclose(tab[0], [1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(tab[1], [0, 0, 0, 1], atol=1e-15)

    def test_backward_values(self):
        bwd = depolarizing_tables(DepolarizingParams(0.0, 0.4, 1)).backward
        for a in range(2):
            assert bwd[a, 1, 1] == pytest.approx(0.8)
            assert bwd[a, 1, 0] == pytest.approx(0.2)

    @pytest.mark.parametrize("q,qt,n", [(0.0, 0.0, 1), (0.3, 0.6, 2), (1.0, 0.5, 3)])
    def test_rows_sum_to_one(self, q, qt, n):
        tab = depolarizing_tables(DepolarizingParams(q, qt, n))
        np.testing.assert_allclose(tab.forward.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(tab.backward.sum(axis=2), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("table", ["forward", "backward"])
    def test_non_finite_rejected(self, table, bad):
        tab = depolarizing_tables(DepolarizingParams(0.1, 0.2, 1))
        fwd, bwd = np.array(tab.forward), np.array(tab.backward)
        (fwd if table == "forward" else bwd)[1, 0] = bad
        with pytest.raises(ValidationError, match=f"{table} table has non-finite"):
            ConditionalChannelTable(fwd, bwd)

    def test_non_stochastic_rejected(self):
        fwd = np.array([[0.5, 0.4], [0.0, 1.0]])
        bwd = np.zeros((2, 2, 2))
        bwd[:, :, 0] = 1.0
        with pytest.raises(ValidationError):
            ConditionalChannelTable(fwd, bwd)


class TestIdentityAttack:
    def test_tables(self):
        atk = identity_attack(2)
        np.testing.assert_allclose(atk.tables.forward[0], [1, 0, 0, 0])
        np.testing.assert_allclose(atk.tables.forward[1], [0, 0, 0, 1])
        # Eve's vectors coincide: the Gram stores the overlap 1 of the two
        # branches of non-zero weight, (0, 0, 0) and (1, 3, 3), and no other
        weighted = atk.tables.weights.reshape(-1) > 0
        np.testing.assert_array_equal(atk.gram.members, np.flatnonzero(weighted))
        np.testing.assert_array_equal(atk.gram.values, np.ones(4))

    def test_p_ghz_through_protocol(self):
        pp = protocol.ProtocolParams(n=2)
        _, _, stats = protocol.run_round_exact(pp, identity_attack(2), 0)
        assert stats.p_ghz == pytest.approx(1.0, abs=1e-12)


class TestEveCatalogue:
    def test_noiseless(self):
        cat = eve_catalogue(DepolarizingParams(0.0, 0.0, 3))
        assert cat.norm_aaa == pytest.approx(0.5, abs=1e-15)
        assert cat.norm_aac == cat.norm_abb == cat.norm_abc == 0.0
        assert cat.cross_overlap == pytest.approx(0.5, abs=1e-15)

    def test_direct_evaluation(self):
        cat = eve_catalogue(DepolarizingParams(0.1, 0.2, 2))
        assert cat.norm_aaa == pytest.approx(0.36 + 0.26 / 8 + 0.02 / 32, abs=1e-15)

    def test_multiplicities(self):
        cat = eve_catalogue(DepolarizingParams(0.3, 0.3, 2))
        assert cat.multiplicities == {"aaa": 2, "aac": 6, "abb": 6, "abc": 18}
        assert sum(cat.multiplicities.values()) == 2 * 4 * 4

    @pytest.mark.parametrize("n", range(1, 7))
    def test_total_mass_grid(self, n):
        worst = 0.0
        for q in np.linspace(0.0, 1.0, 20):
            for qt in np.linspace(0.0, 1.0, 20):
                cat = eve_catalogue(DepolarizingParams(q, qt, n))
                worst = max(worst, abs(cat.total_mass() - 1.0))
        assert worst <= 1e-12

    def test_family_assignment(self):
        cat = eve_catalogue(DepolarizingParams(0.2, 0.1, 2))
        assert catalogue_family(cat, 0, 0, 0) == "aaa"
        assert catalogue_family(cat, 1, 3, 3) == "aaa"
        assert catalogue_family(cat, 0, 0, 2) == "aac"
        assert catalogue_family(cat, 0, 1, 1) == "abb"
        assert catalogue_family(cat, 1, 0, 2) == "abc"
        assert catalogue_family(cat, 1, 2, 3) == "abc"  # c may equal vec a


class TestPGhzAnalytic:
    def test_noiseless(self):
        assert p_ghz_analytic(DepolarizingParams(0.0, 0.0, 4)) == 1.0

    def test_reference_point(self):
        assert p_ghz_analytic(DepolarizingParams(0.1, 0.2, 2)) == \
            pytest.approx(0.755, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fully_depolarized(self, n):
        assert p_ghz_analytic(DepolarizingParams(1.0, 0.7, n)) == \
            pytest.approx(0.5 ** (n + 1), abs=1e-12)

    def test_huge_n_is_finite(self):
        # 2^(n + 1) and 2^(2n + 1) overflow a float here; the closed forms do not
        for q, qt in ((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)):
            params = DepolarizingParams(q, qt, 2000)
            cat = eve_catalogue(params)
            assert math.isfinite(p_ghz_analytic(params))
            assert math.isfinite(joint_az_analytic(0, 1, params))
            assert all(math.isfinite(v) for v in cat.norms.values())


class TestJointAz:
    def test_modes_agree_at_zero_forward(self):
        p = DepolarizingParams(0.0, 0.2, 2)
        for c in range(4):
            for a in range(2):
                lit = joint_az_analytic(a, c, p, "paper_literal")
                cor = joint_az_analytic(a, c, p, "corrected")
                assert lit == pytest.approx(cor, abs=1e-15)
        assert joint_az_analytic(0, 1, p, "paper_literal") == pytest.approx(0.025)
        assert joint_az_analytic(0, 0, p, "paper_literal") == pytest.approx(0.425)

    def test_corrected_reference_point(self):
        p = DepolarizingParams(0.2, 0.1, 2)
        assert joint_az_analytic(0, 2, p, "corrected") == pytest.approx(0.035)
        assert joint_az_analytic(1, 3, p, "corrected") == pytest.approx(0.395)

    @pytest.mark.parametrize("mode", ["paper_literal", "corrected"])
    def test_both_modes_normalize(self, mode):
        p = DepolarizingParams(0.37, 0.58, 3)
        total = sum(joint_az_analytic(a, c, p, mode)
                    for a in range(2) for c in range(8))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_corrected_matches_dilation(self):
        p = DepolarizingParams(0.2, 0.1, 2)
        pp = protocol.ProtocolParams(n=2)
        _, _, stats = protocol.run_round_exact(pp, depolarizing_attack(p), 1)
        for a in range(2):
            for c in range(4):
                assert stats.az_joint[a, c] == \
                    pytest.approx(joint_az_analytic(a, c, p, "corrected"), abs=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            joint_az_analytic(0, 0, DepolarizingParams(0.1, 0.1, 1), "guess")

    @pytest.mark.parametrize("a,c", [(7, 99), (2, 0), (-1, 0), (0, 4), (1, -1)])
    def test_index_out_of_range(self, a, c):
        with pytest.raises(DomainError, match=r"outside \{0, 1\} x \[0, 4\)"):
            joint_az_analytic(a, c, DepolarizingParams(0.1, 0.2, 2))


class TestGramValidation:
    def test_identity_gram_valid(self):
        validate_gram(identity_gram(4), 4)

    def test_not_psd_rejected(self):
        g = np.array(identity_gram(2))
        g[0, 0, 0, 1, 1, 1] = g[1, 1, 1, 0, 0, 0] = 1.5
        with pytest.raises(ValidationError, match="PSD"):
            validate_gram(g, 2)

    def test_asymmetric_rejected(self):
        g = np.array(identity_gram(2))
        g[0, 0, 0, 1, 1, 1] = 0.3
        with pytest.raises(ValidationError, match="symmetric"):
            validate_gram(g, 2)

    def test_bad_diagonal_rejected(self):
        g = np.array(identity_gram(2))
        g[0, 0, 0, 0, 0, 0] = 0.9
        with pytest.raises(ValidationError, match="diagonal"):
            validate_gram(g, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        g = np.array(identity_gram(2))
        g[0, 0, 0, 1, 1, 1] = g[1, 1, 1, 0, 0, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            validate_gram(g, 2)

    def test_depolarizing_gram_valid(self):
        for q, qt in ((0.0, 0.0), (0.1, 0.9), (1.0, 1.0)):
            g = depolarizing_gram(DepolarizingParams(q, qt, 2))
            validate_gram(g, 4)


class TestDilation:
    @pytest.mark.parametrize("q", [0.0, 0.35, 1.0])
    def test_forward_channel_action(self, q):
        # tracing the environment after the forward unitary must give
        # (1-Q) rho + (Q/d) I on the transferring register
        n, d = 1, 2
        atk = depolarizing_attack(DepolarizingParams(q, 0.0, n))
        fwd = atk.forward_dilation
        labels = [("T", d), ("E1", d), ("E2", d), ("E3", 2)]
        lay = qmath.RegisterLayout(labels)
        rng = np.random.default_rng(13)
        amp = rng.normal(size=d) + 1j * rng.normal(size=d)
        amp /= np.linalg.norm(amp)
        rho_in = np.outer(amp, amp.conj())
        psi = qmath.tensor(qmath.StateVector(amp), qmath.StateVector(fwd.env_state))
        psi = qmath.apply_on_subsystems(fwd.perm, psi, lay, ("T", "E1", "E3"))
        rho_out = qmath.partial_trace(density(psi), lay, ("T",))
        expected = (1 - q) * rho_in + q / d * np.eye(d)
        np.testing.assert_allclose(rho_out, expected, atol=1e-12)

    def test_full_depolarization_gives_maximally_mixed(self):
        n, d = 2, 4
        atk = depolarizing_attack(DepolarizingParams(1.0, 0.0, n))
        fwd = atk.forward_dilation
        lay = qmath.RegisterLayout([("T", d), ("E1", d), ("E2", d), ("E3", 2)])
        psi = qmath.tensor(qmath.basis_state(d, 0), qmath.StateVector(fwd.env_state))
        psi = qmath.apply_on_subsystems(fwd.perm, psi, lay, ("T", "E1", "E3"))
        rho = qmath.partial_trace(density(psi), lay, ("T",))
        np.testing.assert_allclose(rho, np.eye(d) / d, atol=1e-12)

    def test_forward_conditionals_match_closed_form(self):
        p = DepolarizingParams(0.3, 0.1, 2)
        atk = depolarizing_attack(p)
        got = protocol.forward_conditionals_exact(atk)
        np.testing.assert_allclose(got, atk.tables.forward, atol=1e-12)

    def test_backward_conditionals_match_closed_form(self):
        p = DepolarizingParams(0.3, 0.45, 2)
        atk = depolarizing_attack(p)
        got = protocol.backward_conditionals_exact(atk)
        np.testing.assert_allclose(got, atk.tables.backward[0], atol=1e-12)
        np.testing.assert_allclose(got, atk.tables.backward[1], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_perm_matches_dense_loop_reference(self, n):
        d = 1 << n
        # the dense controlled-swap the dilation was once built as, kept verbatim
        m = d * d * 2
        u = np.zeros((m, m), dtype=np.complex128)
        for t in range(d):
            for e1 in range(d):
                u[(t * d + e1) * 2 + 0, (t * d + e1) * 2 + 0] = 1.0
                u[(e1 * d + t) * 2 + 1, (t * d + e1) * 2 + 1] = 1.0
        atk = depolarizing_attack(DepolarizingParams(0.2, 0.3, n))
        for leg in (atk.forward_dilation, atk.backward_dilation):
            assert leg.perm.dtype == np.int64 and not leg.perm.flags.writeable
            dense = np.zeros((m, m))
            dense[leg.perm, np.arange(m)] = 1.0
            np.testing.assert_array_equal(dense, u)

    def test_no_dilation_past_dim_cap(self):
        # T x Et, the smallest dilated state, has 2 d^3 amplitudes: over
        # DIM_CAP from n = 8 on, where no exact route could use a dilation
        assert 2 * (1 << 8) ** 3 > qmath.DIM_CAP >= 2 * (1 << 7) ** 3
        atk = depolarizing_attack(DepolarizingParams(0.1, 0.2, 8))
        assert atk.forward_dilation is None and atk.backward_dilation is None
        assert not atk.has_dilation
        assert atk.gram.sizes.tolist() == [2]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_dilations_up_to_n7_unchanged(self, n):
        q, qt = 0.15, 0.35
        atk = depolarizing_attack(DepolarizingParams(q, qt, n))
        for leg, strength in ((atk.forward_dilation, q), (atk.backward_dilation, qt)):
            ref = attacks._depolarizing_dilation(strength, n)
            assert leg.env_dims == ref.env_dims and leg.env_targets == ref.env_targets
            np.testing.assert_array_equal(leg.perm, ref.perm)
            np.testing.assert_array_equal(leg.env_state, ref.env_state)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_routes_keep_dilated_cross_check(self, n):
        atk = depolarizing_attack(DepolarizingParams(0.2, 0.3, n))
        assert atk.has_dilation
        np.testing.assert_allclose(protocol.forward_conditionals_exact(atk),
                                   atk.tables.forward, atol=1e-12)
        _, _, sim = protocol.run_round_exact(protocol.ProtocolParams(n=n), atk, 0)
        ana = protocol.round_statistics(atk, 0)
        assert abs(sim.p_ghz - ana.p_ghz) <= 1e-10
        np.testing.assert_allclose(sim.ctrl_az, ana.ctrl_az, atol=1e-10)


class TestCrossFormConsistency:
    @pytest.mark.parametrize("q,qt,n", [(0.1, 0.2, 1), (0.4, 0.7, 2)])
    def test_analytic_form_reproduces_dilated_statistics(self, q, qt, n):
        p = DepolarizingParams(q, qt, n)
        dil = depolarizing_attack(p)
        ana = attack_from_tables(depolarizing_tables(p), depolarizing_gram(p))
        pp = protocol.ProtocolParams(n=n)
        for theta in (0, 1):
            _, _, s_dil = protocol.run_round_exact(pp, dil, theta)
            s_ana = protocol.round_statistics(ana, theta)
            if theta == 0:
                assert abs(s_dil.p_ghz - s_ana.p_ghz) <= 1e-10
                np.testing.assert_allclose(s_dil.ctrl_az, s_ana.ctrl_az, atol=1e-10)
                assert abs(s_dil.re_overlap - s_ana.re_overlap) <= 1e-10
            else:
                np.testing.assert_allclose(s_dil.abc_joint, s_ana.abc_joint,
                                           atol=1e-10)
                np.testing.assert_allclose(s_dil.pb, s_ana.pb, atol=1e-10)
                assert abs(s_dil.cross_overlap - s_ana.cross_overlap) <= 1e-10


class TestAttackFiles:
    def test_round_trip(self, tmp_path):
        p = DepolarizingParams(0.25, 0.4, 2)
        atk = attack_from_tables(depolarizing_tables(p), depolarizing_gram(p))
        path = tmp_path / "depol.attack"
        dump_attack_file(atk, path)
        back = load_attack_file(path)
        np.testing.assert_allclose(back.tables.forward, atk.tables.forward,
                                   atol=1e-15)
        np.testing.assert_allclose(back.tables.backward, atk.tables.backward,
                                   atol=1e-15)
        np.testing.assert_allclose(back.gram, atk.gram, atol=1e-15)

    @given(st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
    def test_round_trip_property(self, n, seed):
        # random tables and a dense Gram come back bit for bit
        rng = np.random.default_rng(seed)
        d = 1 << n
        tables = ConditionalChannelTable(rng.dirichlet(np.ones(d), size=2),
                                         rng.dirichlet(np.ones(d), size=(2, d)))
        vecs = rng.normal(size=(2 * d * d, int(rng.integers(2, 2 * d * d + 1))))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        flat = vecs @ vecs.T
        gram = ((flat + flat.T) / 2).reshape(2, d, d, 2, d, d)
        atk = attack_from_tables(tables, gram)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random.attack"
            dump_attack_file(atk, path)
            back = load_attack_file(path)
        assert back.n == n
        np.testing.assert_array_equal(back.tables.forward, atk.tables.forward)
        np.testing.assert_array_equal(back.tables.backward, atk.tables.backward)
        np.testing.assert_array_equal(back.gram, atk.gram)

    def test_gram_defaults_to_orthonormal(self, tmp_path):
        path = tmp_path / "plain.attack"
        path.write_text(
            "FORWARD\n0 0 1.0\n0 1 0.0\n1 0 0.0\n1 1 1.0\n"
            "BACKWARD\n0 0 0 1\n0 0 1 0\n0 1 0 0\n0 1 1 1\n"
            "1 0 0 1\n1 0 1 0\n1 1 0 0\n1 1 1 1\n")
        atk = load_attack_file(path)
        np.testing.assert_allclose(atk.gram, identity_gram(2))

    def test_incomplete_forward_rejected(self, tmp_path):
        path = tmp_path / "bad.attack"
        path.write_text("FORWARD\n0 0 1.0\n1 1 1.0\n")
        with pytest.raises(ValidationError, match="FORWARD"):
            load_attack_file(path)

    def test_missing_forward_section_rejected(self, tmp_path):
        path = tmp_path / "bad.attack"
        path.write_text("BACKWARD\n0 0 0 1\n0 0 1 0\n")
        with pytest.raises(ValidationError, match=r"bad.attack:3: missing FORWARD section"):
            load_attack_file(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "bad.attack"
        path.write_text("FORWARD\n0 zero 1.0\n")
        with pytest.raises(ValidationError, match="cannot parse"):
            load_attack_file(path)

    def test_non_psd_gram_rejected(self, tmp_path):
        path = tmp_path / "bad.attack"
        path.write_text(
            "FORWARD\n0 0 1.0\n0 1 0.0\n1 0 0.0\n1 1 1.0\n"
            "BACKWARD\n0 0 0 1\n0 0 1 0\n0 1 0 0\n0 1 1 1\n"
            "1 0 0 1\n1 0 1 0\n1 1 0 0\n1 1 1 1\n"
            "GRAM\n0 0 0 1 1 1 1.5\n")
        with pytest.raises(ValidationError, match="PSD"):
            load_attack_file(path)

    PLAIN = ("FORWARD\n0 0 0.9\n0 1 0.1\n1 0 0.1\n1 1 0.9\n"
             "BACKWARD\n0 0 0 1\n0 0 1 0\n0 1 0 0\n0 1 1 1\n"
             "1 0 0 1\n1 0 1 0\n1 1 0 0\n1 1 1 1\n")

    @pytest.mark.parametrize("old,new", [
        ("1 1 0.9\n", "-1 1 0.9\n"),
        ("1 1 0.9\n", "2 1 0.9\n"),
        ("0 1 1 1\n", "0 1 -1 1\n"),
        ("1 1 1 1\n", "1 1 1 1\nGRAM\n0 0 0 1 5 1 0.1\n"),
        ("1 1 1 1\n", "1 1 1 1\nGRAM\n0 0 0 -1 1 1 0.1\n"),
    ], ids=["forward-negative-bit", "forward-bit-past-1", "backward-negative-string",
            "gram-string-past-d", "gram-negative-bit"])
    def test_out_of_range_index_rejected(self, tmp_path, old, new):
        path = tmp_path / "bad.attack"
        path.write_text(self.PLAIN.replace(old, new, 1))
        with pytest.raises(ValidationError, match=r"bad\.attack:\d+: index"):
            load_attack_file(path)

    @pytest.mark.parametrize("old,new", [
        ("0 1 0.1\n", "0 0 0.9\n"),
        ("0 0 1 0\n", "0 0 0 1\n"),
        ("1 1 1 1\n", "1 1 1 1\nGRAM\n0 0 0 1 1 1 0.2\n0 0 0 1 1 1 0.3\n"),
        ("1 1 1 1\n", "1 1 1 1\nGRAM\n0 0 0 1 1 1 0.2\n1 1 1 0 0 0 0.3\n"),
    ], ids=["forward", "backward", "gram", "gram-mirror"])
    def test_duplicate_row_rejected(self, tmp_path, old, new):
        path = tmp_path / "dup.attack"
        path.write_text(self.PLAIN.replace(old, new, 1))
        with pytest.raises(ValidationError, match=r"dup\.attack:\d+: duplicate"):
            load_attack_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("old,new,lineno", [
        ("0 0 0.9\n", "0 0 {}\n", 2),
        ("0 0 0 1\n", "0 0 0 {}\n", 7),
        ("1 1 1 1\n", "1 1 1 1\nGRAM\n0 0 0 1 1 1 {}\n", 16),
    ], ids=["forward", "backward", "gram"])
    def test_non_finite_value_rejected(self, tmp_path, old, new, lineno, value):
        path = tmp_path / "nf.attack"
        path.write_text(self.PLAIN.replace(old, new.format(value), 1))
        with pytest.raises(ValidationError,
                           match=rf"nf\.attack:{lineno}: value '{value}' is not finite"):
            load_attack_file(path)

    @pytest.mark.parametrize("old,new,where", [
        ("0 1 0.1\n", "0 1 -0.1\n", r"3: probability -0\.1 is negative"),
        ("0 1 0.1\n", "0 1 0.2\n", r"2-3: FORWARD row \(0,\) sums to 1\.1"),
        ("0 0 0 1\n", "", r"7: BACKWARD row \(0, 0\) sums to 0\.0"),
        ("0 1 0.1\n", "", r"1: FORWARD must list all 2\*d entries"),
        ("1 1 1 1\n", "1 1 1 1\nGRAM\n0 0 0 1 1 1 0.5\n0 0 0 0 1 1 0.9\n"
                      "0 1 1 1 1 1 0.9\n", r"16-18: gram is not PSD"),
        ("1 1 1 1\n", "1 1 1 1\nGRAM\n1 1 1 1 1 1 0.5\n", r"16: diagonal GRAM entry"),
    ], ids=["negative", "forward-sum", "backward-sum", "forward-missing", "not-psd",
            "diagonal"])
    def test_table_and_gram_errors_name_their_lines(self, tmp_path, old, new, where):
        path = tmp_path / "bad.attack"
        path.write_text(self.PLAIN.replace(old, new, 1))
        with pytest.raises(ValidationError, match=r"bad\.attack:" + where):
            load_attack_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.attack"
        path.write_text(
            "# a comment\n\nFORWARD\n0 0 1.0  # inline\n0 1 0.0\n"
            "1 0 0.0\n1 1 1.0\nBACKWARD\n0 0 0 1\n0 0 1 0\n0 1 0 0\n0 1 1 1\n"
            "1 0 0 1\n1 0 1 0\n1 1 0 0\n1 1 1 1\n")
        atk = load_attack_file(path)
        assert atk.n == 1


class TestSizeCap:
    """Attacks are size-checked before anything is allocated."""

    def test_largest_dense_gram_passes(self):
        # a dense Gram is only a view for small d: n = 5 has (2 * 4^5)^2 =
        # 2^22 entries, under GRAM_ENTRY_CAP; n = 6 (2^26) is refused
        assert np.asarray(identity_gram(32)).shape == (2, 32, 32) * 2
        assert (2 * 4 ** 6) ** 2 > attacks.GRAM_ENTRY_CAP
        with pytest.raises(qmath.CapacityError, match="GRAM_ENTRY_CAP"):
            np.asarray(identity_gram(64))

    def test_largest_attack_passes(self):
        # the backward table has 2 * 4^n entries: 2^21 at n = 10, 2^23 at n = 11
        assert 2 * 4 ** 10 <= qmath.DIM_CAP < 2 * 4 ** 11
        attacks.check_attack_size(10)

    @pytest.mark.parametrize("n", [11, 22, 64, 10 ** 9])
    def test_over_cap_is_capacity_error(self, n):
        with pytest.raises(qmath.CapacityError, match=f"n={n} "):
            attacks.check_attack_size(n)

    def test_constructors_check_first(self):
        with pytest.raises(qmath.CapacityError):
            identity_attack(11)
        with pytest.raises(qmath.CapacityError):
            depolarizing_attack(DepolarizingParams(0.1, 0.2, 64))
        with pytest.raises(qmath.CapacityError):
            identity_gram(1 << 22)

    def test_oversized_attack_file(self, tmp_path):
        path = tmp_path / "big.attack"
        d = 1 << 11
        path.write_text("FORWARD\n" + "".join(f"{a} {b} {1.0 / d!r}\n"
                                              for a in range(2) for b in range(d)))
        with pytest.raises(qmath.CapacityError, match="n=11 "):
            load_attack_file(path)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_receiver_is_domain_error(self, n):
        with pytest.raises(DomainError, match="receiving party"):
            identity_attack(n)


class TestAttackAssembly:
    def test_n_and_d_follow_tables(self):
        atk = CollectiveAttack(depolarizing_tables(DepolarizingParams(0.1, 0.1, 2)),
                               identity_gram(4))
        assert (atk.n, atk.d) == (2, 4)
        assert not atk.has_dilation

    def test_n_mismatch_rejected(self):
        # a Gram for n=3 does not fit tables for n=2
        tab = depolarizing_tables(DepolarizingParams(0.1, 0.1, 2))
        with pytest.raises(ValidationError, match="gram must have shape"):
            CollectiveAttack(tab, identity_gram(8))
