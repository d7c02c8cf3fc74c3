"""Protocol round/session tests: soundness, exact statistics, sampling."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sstats

from conftest import dense_amps, eve_branch_gram_exact
from sqcka import estimation, protocol, qmath
from sqcka.estimation import TallyCounts
from sqcka.attacks import (
    ConditionalChannelTable,
    DepolarizingParams,
    EveGram,
    attack_from_tables,
    depolarizing_attack,
    identity_attack,
    p_ghz_analytic,
)
from sqcka.protocol import (
    ProtocolParams,
    RoundSampler,
    ThetaSchedule,
    bob_operation,
    default_ctrl_count,
    expand_theta_schedule,
    prepare_ghz,
    round_statistics,
    run_round_exact,
    run_session,
)
from sqcka.qmath import DomainError, ValidationError

SQ2 = 1.0 / math.sqrt(2.0)


class TestPrepareGhz:
    def test_bell_state(self):
        g = prepare_ghz(2, 0, "0")
        np.testing.assert_allclose(dense_amps(g), [SQ2, 0, 0, SQ2], atol=1e-15)

    def test_signed_complement_branch(self):
        # (|001> - |110>)/sqrt(2)
        g = prepare_ghz(3, 1, "01")
        expected = np.zeros(8)
        expected[0b001] = SQ2
        expected[0b110] = -SQ2
        np.testing.assert_allclose(dense_amps(g), expected, atol=1e-15)

    @pytest.mark.parametrize("x,y", [(0, "00"), (1, "10"), (0, "111"), (1, "0110")])
    def test_normalized(self, x, y):
        g = prepare_ghz(len(y) + 1, x, y)
        assert np.linalg.norm(g.values) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            prepare_ghz(3, 0, "0")


def dense_copy_reference(n):
    """The dense copy matrix ``bob_operation`` was once built as, kept verbatim."""
    d = 1 << n
    u = np.zeros((d * d, d * d), dtype=np.complex128)
    for t in range(d):
        for bb in range(d):
            if bb == 0:
                src = t
            elif bb == t:
                src = 0
            else:
                src = bb
            u[t * d + src, t * d + bb] = 1.0
    return u


class TestBobOperation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unitary(self, n):
        # a permutation of all d^2 basis states, and an involution
        perm = bob_operation(n)
        np.testing.assert_array_equal(np.sort(perm), np.arange(4 ** n))
        np.testing.assert_array_equal(perm[perm], np.arange(4 ** n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_loop_reference(self, n):
        perm = bob_operation(n)
        dense = np.zeros((perm.size, perm.size))
        dense[perm, np.arange(perm.size)] = 1.0
        np.testing.assert_array_equal(dense, dense_copy_reference(n))

    def test_copy_action(self):
        # |10>_T |00>_B -> |10>_T |10>_B
        n, d = 2, 4
        lay = qmath.RegisterLayout([("T", d), ("B", d)])
        state = qmath.basis_state(16, np.ravel_multi_index((2, 0), lay.dims))
        out = qmath.apply_on_subsystems(bob_operation(n), state, lay, ("T", "B"))
        expected = qmath.basis_state(16, np.ravel_multi_index((2, 2), lay.dims))
        np.testing.assert_allclose(dense_amps(out), dense_amps(expected))

    def test_copy_on_ghz_branches_is_diagonal(self):
        # applied to the noiseless branch sum the copy correlates B with T
        n = 2
        lay = qmath.RegisterLayout([("A", 2), ("T", 4), ("B", 4)])
        psi = qmath.tensor(prepare_ghz(n + 1, 0, "00"), qmath.basis_state(4, 0))
        out = qmath.apply_on_subsystems(bob_operation(n), psi, lay, ("T", "B"))
        joint = qmath.subsystem_probabilities(out, lay, ("T", "B"))
        np.testing.assert_allclose(np.diag(np.diag(joint)), joint, atol=1e-15)
        assert joint[0, 0] == pytest.approx(0.5)
        assert joint[3, 3] == pytest.approx(0.5)


class TestAliceMeasurements:
    """The sender's GHZ test and Z measurement, read off exact final states."""

    def test_ghz_projection_noiseless(self):
        pp = ProtocolParams(n=2)
        _, _, stats = run_round_exact(pp, identity_attack(2), 0)
        assert stats.p_ghz == pytest.approx(1.0, abs=1e-12)

    def test_ghz_projection_fully_depolarized(self):
        pp = ProtocolParams(n=2)
        atk = depolarizing_attack(DepolarizingParams(1.0, 0.3, 2))
        _, _, stats = run_round_exact(pp, atk, 0)
        assert stats.p_ghz == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_ghz_projection_reference_point(self):
        pp = ProtocolParams(n=2)
        atk = depolarizing_attack(DepolarizingParams(0.1, 0.2, 2))
        _, _, stats = run_round_exact(pp, atk, 0)
        assert stats.p_ghz == pytest.approx(0.755, abs=1e-12)

    def test_z_measurement_noiseless(self):
        pp = ProtocolParams(n=2)
        _, _, stats = run_round_exact(pp, identity_attack(2), 1)
        expected = np.zeros((2, 4))
        expected[0, 0] = expected[1, 3] = 0.5
        np.testing.assert_allclose(stats.az_joint, expected, atol=1e-14)

    def test_sender_marginal_always_half(self):
        rng = np.random.default_rng(21)
        pp = ProtocolParams(n=2)
        for _ in range(5):
            fwd = rng.dirichlet(np.ones(4), size=2)
            bwd = rng.dirichlet(np.ones(4), size=(2, 4))
            atk = attack_from_tables(ConditionalChannelTable(fwd, bwd))
            _, _, stats = run_round_exact(pp, atk, 1)
            table = stats.az_joint
            assert abs(table.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(table.sum(axis=1), [0.5, 0.5], atol=1e-12)
            np.testing.assert_allclose(stats.pa, [0.5, 0.5], atol=1e-12)


class TestRunRoundExact:
    def test_identity_sift_outcomes_all_equal(self):
        pp = ProtocolParams(n=3)
        _, _, stats = run_round_exact(pp, identity_attack(3), 1)
        joint = stats.abc_joint
        assert joint[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert joint[1, 7, 7] == pytest.approx(0.5, abs=1e-12)
        mask = np.ones_like(joint, dtype=bool)
        mask[0, 0, 0] = mask[1, 7, 7] = False
        assert np.max(np.abs(joint[mask])) <= 1e-14

    def test_identity_ctrl_passes(self):
        pp = ProtocolParams(n=2)
        _, _, stats = run_round_exact(pp, identity_attack(2), 0)
        assert stats.p_ghz == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_receiver_marginal(self):
        pp = ProtocolParams(n=2)
        atk = depolarizing_attack(DepolarizingParams(0.1, 0.2, 2))
        _, _, stats = run_round_exact(pp, atk, 1)
        np.testing.assert_allclose(stats.pb, [0.475, 0.025, 0.025, 0.475],
                                   atol=1e-12)

    def test_branch_weights_match_tables(self):
        # final-state branch structure: each (a, b, c) carries weight
        # p(b|a) p'(c|ab) / 2 and the branch overlaps reproduce the gram
        p = DepolarizingParams(0.3, 0.2, 2)
        atk = depolarizing_attack(p)
        pp = ProtocolParams(n=2)
        state, lay, _ = run_round_exact(pp, atk, 1)
        gram_sim = eve_branch_gram_exact(state, lay)
        w = atk.tables.weights / 2
        np.testing.assert_allclose(np.diag(gram_sim).real, w.ravel(), atol=1e-12)
        norms = np.sqrt(np.diag(gram_sim).real)
        unit = gram_sim.real / np.outer(norms, norms)
        np.testing.assert_allclose(unit, np.asarray(atk.gram).reshape(32, 32),
                                   atol=1e-10)

    def test_embedded_matches_analytic_for_table_attack(self):
        rng = np.random.default_rng(22)
        fwd = rng.dirichlet(np.ones(4), size=2)
        bwd = rng.dirichlet(np.ones(4), size=(2, 4))
        atk = attack_from_tables(ConditionalChannelTable(fwd, bwd))
        pp = ProtocolParams(n=2)
        for theta in (0, 1):
            _, _, sim = run_round_exact(pp, atk, theta)
            ana = round_statistics(atk, theta)
            if theta == 0:
                assert abs(sim.p_ghz - ana.p_ghz) <= 1e-12
                np.testing.assert_allclose(sim.ctrl_az, ana.ctrl_az, atol=1e-12)
                np.testing.assert_allclose(sim.branch_norms, ana.branch_norms,
                                           atol=1e-12)
            else:
                np.testing.assert_allclose(sim.abc_joint, ana.abc_joint, atol=1e-12)

    def test_inconsistent_gram_rejected_in_reflection(self):
        rng = np.random.default_rng(23)
        fwd = rng.dirichlet(np.ones(2), size=2)
        bwd = rng.dirichlet(np.ones(2), size=(2, 2))
        vecs = rng.normal(size=(8, 4))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        gram = (vecs @ vecs.T).reshape(2, 2, 2, 2, 2, 2)
        # the total reflected mass is 1, but bit 0 has 1.25 and bit 1 has 0.75
        balanced = EveGram(2, (0, 2, 4, 6), (2, 2), (1, .5, .5, 1, 1, -.5, -.5, 1))
        uniform = ConditionalChannelTable(np.full((2, 2), .5), np.full((2, 2, 2), .5))
        for tables, g in ((ConditionalChannelTable(fwd, bwd), gram), (uniform, balanced)):
            atk = attack_from_tables(tables, g)
            with pytest.raises(ValidationError, match="admit no unitary round") as exact:
                run_round_exact(ProtocolParams(n=1), atk, 0)
            with pytest.raises(ValidationError) as analytic:
                round_statistics(atk, 0)
            assert str(exact.value) == str(analytic.value)

    def test_sift_statistics_at_n10_keep_no_gram_keys(self):
        # reading the one overlap left 48 MiB of per-branch keys on the Gram
        atk = depolarizing_attack(DepolarizingParams(0.1, 0.2, 10))
        tracemalloc.start()
        try:
            stats = round_statistics(atk, 1)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained - stats.abc_joint.nbytes < 2 ** 20
        # bitwise the overlap that the per-branch keys read
        joint = stats.abc_joint
        via_keys = math.sqrt(joint[0, 0, 0] * joint[1, -1, -1]) * atk.gram.cross(0, 1024 ** 2 - 1)
        assert stats.cross_overlap == float(via_keys) != 0.0

    def test_capacity_error_for_large_n(self):
        pp = ProtocolParams(n=4)
        with pytest.raises(qmath.CapacityError):
            run_round_exact(pp, depolarizing_attack(DepolarizingParams(0.1, 0.1, 4)), 1)

    def test_n_mismatch(self):
        pp = ProtocolParams(n=2)
        with pytest.raises(ValidationError):
            run_round_exact(pp, identity_attack(1), 1)


_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def _on(nq, placed):
    """The operator with ``placed[i]`` on qubit i and the identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for i in range(nq):
        out = np.kron(out, placed.get(i, _I2))
    return out


def _cswap(nq, ctrl, i, j):
    """Swap of qubits i and j controlled by ``ctrl``; SWAP = (II+XX+YY+ZZ)/2."""
    swap = sum(_on(nq, {ctrl: _P1, i: p, j: p}) for p in (_I2, _X, _Y, _Z))
    return _on(nq, {ctrl: _P0}) + 0.5 * swap


def dense_round_n1(q, qtilde, theta):
    """Final state of the n = 1 dilated round, from dense ``np.kron`` operators.

    Qubits: A, T, [B], E1, E2, E3, Et1, Et2, Et3, the layout order of the
    exact route.  Each depolarizing leg swaps T with half of a Bell pair,
    controlled by a qubit prepared as sqrt(1-s)|0> + sqrt(s)|1>; the
    receiver copies T into B by a CNOT.
    """
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
    parts = [bell] + ([np.array([1, 0], dtype=complex)] if theta == 1 else [])
    for s in (q, qtilde):
        parts += [bell, np.array([math.sqrt(1.0 - s), math.sqrt(s)], dtype=complex)]
    psi = parts[0]
    for part in parts[1:]:
        psi = np.kron(psi, part)
    nq = 8 + theta
    e1 = 2 + theta
    psi = _cswap(nq, e1 + 2, 1, e1) @ psi
    if theta == 1:
        psi = (_on(nq, {1: _P0}) + _on(nq, {1: _P1, 2: _X})) @ psi
    return _cswap(nq, e1 + 5, 1, e1 + 3) @ psi


class TestDenseRoundReference:
    """The assembled dilated round at n = 1 against a dense-operator build."""

    @pytest.mark.parametrize("theta", [0, 1])
    @pytest.mark.parametrize("q,qtilde", [(0.0, 0.0), (1.0, 1.0), (0.2, 0.3),
                                          (1.0, 0.5), (0.0, 1.0), (0.37, 0.05)])
    def test_dilated_round_matches_dense_kron(self, q, qtilde, theta):
        atk = depolarizing_attack(DepolarizingParams(q, qtilde, 1))
        state, lay, stats = run_round_exact(ProtocolParams(n=1), atk, theta)
        psi = dense_round_n1(q, qtilde, theta)
        assert lay.total_dim == psi.size
        np.testing.assert_allclose(dense_amps(state), psi, rtol=0, atol=1e-12)
        amps = psi.reshape((2,) * (8 + theta))
        probs = np.abs(amps) ** 2
        if theta == 1:
            joint = probs.sum(axis=tuple(range(3, 9))).transpose(0, 2, 1)  # (A, B, T)
            cross = np.vdot(amps[0, 0, 0].ravel(), amps[1, 1, 1].ravel()).real
            np.testing.assert_allclose(stats.abc_joint, joint, rtol=0, atol=1e-12)
            assert abs(stats.cross_overlap - cross) <= 1e-12
            return
        ctrl_az = probs.sum(axis=tuple(range(2, 8)))
        branch = (amps[0, 0] + amps[1, 1]).ravel() / math.sqrt(2.0)
        re_tilde = 2.0 * np.vdot(amps[0, 0].ravel(), amps[1, 1].ravel()).real
        np.testing.assert_allclose(stats.ctrl_az, ctrl_az, rtol=0, atol=1e-12)
        assert abs(stats.p_ghz - np.vdot(branch, branch).real) <= 1e-12
        assert abs(stats.re_overlap - re_tilde) <= 1e-12

    def test_dilated_round_memory_stays_support_sized(self):
        # the n = 3 round state has 2^21 amplitudes, 512 of them nonzero;
        # a dense build would allocate tens of MiB here
        atk = depolarizing_attack(DepolarizingParams(0.1, 0.2, 3))
        pp = ProtocolParams(n=3)
        tracemalloc.start()
        try:
            state, _, _ = run_round_exact(pp, atk, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert state.dim == 1 << 21 and state.index.size == 512


class TestSampling:
    def test_identity_sift_is_deterministic(self):
        sampler = RoundSampler(identity_attack(2))
        rng = np.random.default_rng(1)
        ab, c = np.divmod(sampler.draw_sift(rng.random(20)), 4)
        a, b = np.divmod(ab, 4)
        np.testing.assert_array_equal(b, c)
        assert set(b.tolist()) <= {0, 3}
        np.testing.assert_array_equal(a, np.where(b == 0, 0, 1))

    def test_identity_ctrl_always_passes(self):
        sampler = RoundSampler(identity_attack(2))
        rng = np.random.default_rng(2)
        assert sampler.draw_ghz(rng.random(20)).all()

    def test_ctrl_ztest_outcome_fields(self):
        sampler = RoundSampler(identity_attack(2))
        rng = np.random.default_rng(3)
        a, c = np.divmod(sampler.draw_ztest(rng.random(20)), 4)
        assert set(a.tolist()) <= {0, 1} and set(c.tolist()) <= {0, 3}
        # in a session, Z-test rounds fill a and c only
        sched = ThetaSchedule(num_rounds=6, ctrl_indices=(1, 2, 3, 4))
        rec = run_session(ProtocolParams(n=2), identity_attack(2), sched, 3, 0.1)
        z = np.array([1, 3])
        np.testing.assert_array_equal(rec.theta[z], 0)
        np.testing.assert_array_equal(rec.ghz_pass[z], -1)
        np.testing.assert_array_equal(rec.b[z], -1)
        assert set(rec.a[z].tolist()) <= {0, 1} and set(rec.c[z].tolist()) <= {0, 3}

    def test_ghz_sampling_within_binomial_bounds(self):
        p = DepolarizingParams(0.3, 0.0, 2)
        sampler = RoundSampler(depolarizing_attack(p))
        rng = np.random.default_rng(4)
        trials = 100_000
        hits = int(sampler.draw_ghz(rng.random(trials)).sum())
        target = p_ghz_analytic(p)
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(hits / trials - target) <= 3 * sigma

    def test_sift_sampling_chi_square(self):
        # sampled frequencies against the exact simulated distribution
        p = DepolarizingParams(0.1, 0.2, 2)
        atk = depolarizing_attack(p)
        pp = ProtocolParams(n=2)
        _, _, exact = run_round_exact(pp, atk, 1)
        probs = exact.abc_joint.ravel()
        sampler = RoundSampler(atk)
        rng = np.random.default_rng(5)
        trials = 100_000
        counts = np.bincount(sampler.draw_sift(rng.random(trials)),
                             minlength=probs.size)
        keep = probs > 0
        assert counts[~keep].sum() == 0
        _, pvalue = sstats.chisquare(counts[keep], probs[keep] * trials)
        assert pvalue > 0.001

    def test_ctrl_ztest_sampling_chi_square(self):
        p = DepolarizingParams(0.25, 0.15, 2)
        atk = depolarizing_attack(p)
        pp = ProtocolParams(n=2)
        _, _, exact = run_round_exact(pp, atk, 0)
        probs = exact.ctrl_az.ravel()
        sampler = RoundSampler(atk)
        rng = np.random.default_rng(6)
        trials = 100_000
        counts = np.bincount(sampler.draw_ztest(rng.random(trials)),
                             minlength=probs.size)
        _, pvalue = sstats.chisquare(counts, probs * trials)
        assert pvalue > 0.001

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="params n=3 != attack n=2"):
            run_session(ProtocolParams(n=3), identity_attack(2),
                        expand_theta_schedule(1, 100), 1)


class TestGuideDraw:
    """The guide draw of SIFT outcomes against the binary search it replaces."""

    @staticmethod
    def adversarial_uniforms(cum, m):
        """0, 1 - 2^-53, every table value and every bucket edge k/m (for
        m <= 2^16), each with its neighbours one ulp away, kept in [0, 1)."""
        vals = [cum, [0.0, 1.0]]
        if m <= 1 << 16:
            vals.append(np.arange(m) / m)
        vals = np.concatenate(vals)
        u = np.concatenate([vals, np.nextafter(vals, -1.0), np.nextafter(vals, 2.0)])
        return u[(u >= 0.0) & (u < 1.0)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("q,qt", [(0.0, 0.0), (0.1, 0.2), (0.5, 0.0)],
                             ids=["identity", "depolarizing", "q-half"])
    def test_equals_searchsorted_bit_for_bit(self, n, q, qt):
        atk = identity_attack(n) if q == qt == 0.0 \
            else depolarizing_attack(DepolarizingParams(q, qt, n))
        sampler = RoundSampler(atk)
        cum, m = sampler._sift_cum, sampler._lo.size
        assert m & (m - 1) == 0 and m >= cum.size
        if q == qt == 0.0:
            # every running sum is 1/2 or 1, repeated over long runs of zero
            # weight: each lies on a bucket edge, so no bucket is busy
            assert set(cum.tolist()) == {0.5, 1.0} and not sampler._busy.any()
        u = np.concatenate([self.adversarial_uniforms(cum, m),
                            np.random.default_rng(n).random(1 << 16)])
        for s in range(0, u.size, 1 << 20):  # bounded temporaries at n = 10
            part = u[s:s + (1 << 20)]
            np.testing.assert_array_equal(sampler.draw_sift(part),
                                          np.searchsorted(cum, part, side="right"))
        assert sampler.draw_sift(np.array([1.0 - 2.0 ** -53]))[0] == \
            np.searchsorted(cum, 1.0 - 2.0 ** -53, side="right")


class TestSchedule:
    def test_deterministic_expansion(self):
        s1 = expand_theta_schedule(b"shared", 16, 4)
        s2 = expand_theta_schedule(b"shared", 16, 4)
        assert s1.ctrl_indices == s2.ctrl_indices
        assert len(set(s1.ctrl_indices)) == 4
        assert all(1 <= j <= 16 for j in s1.ctrl_indices)

    def test_different_seeds_differ(self):
        a = expand_theta_schedule(b"seed-a", 1000, 100)
        b = expand_theta_schedule(b"seed-b", 1000, 100)
        assert a.ctrl_indices != b.ctrl_indices

    def test_all_ctrl(self):
        s = expand_theta_schedule(7, 12, 12)
        assert s.ctrl_indices == tuple(range(1, 13))

    def test_default_policy_sqrt(self):
        assert default_ctrl_count(10_000) == 100
        assert default_ctrl_count(10_001) == 101
        s = expand_theta_schedule("k", 10_000)
        assert s.num_ctrl == 100

    def test_too_many_ctrl(self):
        with pytest.raises(DomainError):
            expand_theta_schedule(b"x", 4, 5)
        with pytest.raises(DomainError, match="num_ctrl -1 outside"):
            expand_theta_schedule(b"x", 4, -1)

    def test_rounds_cap_checked_before_expanding(self):
        # the cap is checked first: 10 CTRL rounds would be cheap to draw
        with pytest.raises(qmath.CapacityError, match="ROUNDS_CAP"):
            expand_theta_schedule(b"x", 10 ** 12, 10)
        with pytest.raises(qmath.CapacityError, match="ROUNDS_CAP"):
            run_session(ProtocolParams(n=1), identity_attack(1),
                        ThetaSchedule(num_rounds=protocol.ROUNDS_CAP + 1,
                                      ctrl_indices=(1,)), 1)
        assert expand_theta_schedule(b"x", protocol.ROUNDS_CAP, 2).num_ctrl == 2

    def test_ctrl_cap_checked_before_expanding(self, monkeypatch):
        # 10^8 CTRL indices would take about 22 GB to expand
        def no_stream(seed):
            raise AssertionError("the schedule was expanded")
        monkeypatch.setattr(protocol, "_XofStream", no_stream)
        with pytest.raises(qmath.CapacityError, match="CTRL_CAP"):
            expand_theta_schedule(1, 10 ** 8, protocol.CTRL_CAP + 1)

    def test_negative_round_count_rejected(self):
        # refused when the schedule is built, not by numpy in run_session
        with pytest.raises(DomainError, match="negative round count -5"):
            ThetaSchedule(num_rounds=-5, ctrl_indices=())
        with pytest.raises(DomainError, match="negative round count -1"):
            expand_theta_schedule(b"x", -1, 0)
        assert ThetaSchedule(num_rounds=0, ctrl_indices=()).num_ctrl == 0

    def test_non_integer_round_count_rejected(self):
        with pytest.raises(ValidationError, match="round count 10.5 is not an integer"):
            ThetaSchedule(num_rounds=10.5, ctrl_indices=(2,))
        with pytest.raises(ValidationError, match="round count 10.5 is not an integer"):
            expand_theta_schedule(1, 10.5, 2)
        with pytest.raises(ValidationError, match="not an integer"):
            ThetaSchedule(num_rounds="10", ctrl_indices=())

    @pytest.mark.parametrize("num_ctrl", [2.5, "2", 2.0])
    def test_non_integer_ctrl_count_rejected(self, num_ctrl):
        # refused before the shuffle, not by range() or a str < int compare
        with pytest.raises(ValidationError, match=f"CTRL count {num_ctrl!r} is not an integer"):
            expand_theta_schedule(1, 10, num_ctrl)
        with pytest.raises(ValidationError, match="not an integer"):
            protocol.check_ctrl_count(num_ctrl)

    def test_numpy_integer_ctrl_count_accepted(self):
        for num_ctrl in (np.int64(3), np.uint8(3)):
            assert expand_theta_schedule(1, 10, num_ctrl) == expand_theta_schedule(1, 10, 3)

    @pytest.mark.parametrize("idx", [(1.5, 2.7), ("3", "4"), (2, 3.0), (True,),
                                     ((1, 2), (3, 4))])
    def test_non_integer_ctrl_indices_rejected(self, idx):
        with pytest.raises(ValidationError, match="sequence of integers"):
            ThetaSchedule(num_rounds=10, ctrl_indices=idx)

    def test_numpy_integers_accepted(self):
        s = ThetaSchedule(num_rounds=np.int64(10),
                          ctrl_indices=np.array([2, 5], dtype=np.uint32))
        assert s.ctrl_indices == (2, 5)
        assert all(type(j) is int for j in s.ctrl_indices)
        assert ThetaSchedule(num_rounds=np.uint8(3), ctrl_indices=[]).num_ctrl == 0

    def test_ctrl_order_and_range_rejected(self):
        # unsigned indices are compared, never subtracted, so 3, 2 cannot
        # wrap round into an increasing step
        for idx in ((2, 2), (3, 1), np.array([3, 2], dtype=np.uint64)):
            with pytest.raises(ValidationError, match="strictly increasing"):
                ThetaSchedule(num_rounds=10, ctrl_indices=idx)
        for idx in ((0, 3), (3, 11), np.array([4, 2 ** 64 - 1], dtype=np.uint64)):
            with pytest.raises(ValidationError, match="outside 1..num_rounds"):
                ThetaSchedule(num_rounds=10, ctrl_indices=idx)

    def test_theta_lookup(self):
        s = ThetaSchedule(num_rounds=5, ctrl_indices=(2, 4))
        rec = run_session(ProtocolParams(n=1), identity_attack(1), s, 1)
        assert rec.theta.tolist() == [1, 0, 1, 0, 1]

    def test_seed_types(self):
        assert expand_theta_schedule("abc", 50, 5) == \
            expand_theta_schedule(b"abc", 50, 5)
        assert expand_theta_schedule(123, 50, 5).num_ctrl == 5

    @pytest.mark.parametrize("seed,num_rounds,num_ctrl", [
        (b"shared", 16, 4), ("k", 10_000, None), (7, 12, 12), (-3, 1000, 999),
        (123, 50, 5), (b"x", 1, 1), (b"x", 0, 0), (2**70, 5000, 71),
    ])
    def test_sparse_shuffle_matches_pool(self, seed, num_rounds, num_ctrl):
        # reference: the partial Fisher-Yates over a full arange(N) pool,
        # which the sparse shuffle must match draw for draw
        def pool_reference(seed, num_rounds, num_ctrl=None):
            if num_ctrl is None:
                num_ctrl = default_ctrl_count(num_rounds)
            stream = protocol._XofStream(protocol._seed_bytes(seed))
            pool = np.arange(1, num_rounds + 1, dtype=np.int64)
            for i in range(num_ctrl):
                j = i + stream.below(num_rounds - i)
                pool[i], pool[j] = pool[j], pool[i]
            return tuple(sorted(int(x) for x in pool[:num_ctrl]))

        got = expand_theta_schedule(seed, num_rounds, num_ctrl).ctrl_indices
        assert got == pool_reference(seed, num_rounds, num_ctrl)


class TestRunSession:
    def test_identity_keys_agree(self):
        for n in (1, 2, 3):
            pp = ProtocolParams(n=n)
            sched = expand_theta_schedule(n, 400, 40)
            rec = run_session(pp, identity_attack(n), sched, 99, 0.1)
            assert rec.tallies.ghz_pass == rec.tallies.ghz_total > 0
            for i in range(n):
                np.testing.assert_array_equal(rec.raw_key_alice,
                                              rec.raw_key_bobs[i])

    def test_outcome_counts_match_schedule(self):
        pp = ProtocolParams(n=2)
        sched = expand_theta_schedule(b"s", 500, 60)
        rec = run_session(pp, identity_attack(2), sched, 5, 0.2)
        t = rec.tallies
        assert t.ghz_total == 30
        assert t.z_ctrl_counts.sum() == 30
        assert t.sift_total + rec.raw_key_alice.size == 440
        for col in (rec.theta, rec.a, rec.b, rec.c, rec.ghz_pass):
            assert col.shape == (500,)
        ctrl = np.array(sched.ctrl_indices) - 1
        np.testing.assert_array_equal(np.flatnonzero(rec.theta == 0), ctrl)
        np.testing.assert_array_equal(np.flatnonzero(rec.ghz_pass >= 0), ctrl[0::2])
        assert (rec.ghz_pass == 1).sum() == t.ghz_pass
        sift = rec.theta == 1
        assert (rec.b[sift] >= 0).all() and (rec.b[~sift] == -1).all()
        assert (rec.a >= 0).sum() == 470 and (rec.c >= 0).sum() == 470

    def test_disclosed_marks_sift_rounds_and_rounds_are_conserved(self):
        atk = depolarizing_attack(DepolarizingParams(0.2, 0.1, 3))
        sched = expand_theta_schedule(b"disclosed", 4000, 300)
        rec = run_session(ProtocolParams(n=3), atk, sched, 6, 0.3)
        t = rec.tallies
        assert rec.disclosed.dtype == bool and rec.disclosed.shape == (4000,)
        assert (rec.theta[rec.disclosed] == 1).all()
        assert np.count_nonzero(rec.disclosed) == t.sift_total > 0
        assert t.ghz_total + t.z_ctrl_counts.sum() + t.sift_total \
            + rec.raw_key_alice.size == 4000
        assert rec.raw_key_bobs.shape == (3, rec.raw_key_alice.size)

    @pytest.mark.parametrize("n,bytes_per_round", [(3, 7.5), (10, 9.0)])
    def test_record_holds_only_its_columns(self, n, bytes_per_round):
        # the columns take 6 B a round (8 B once b and c are int16, n >= 8);
        # stored raw keys would add n + 1 B per key round
        num = 10 ** 6
        atk = depolarizing_attack(DepolarizingParams(0.1, 0.2, n))
        sched = expand_theta_schedule(b"memory", num)
        tracemalloc.start()
        try:
            rec = run_session(ProtocolParams(n=n), atk, sched, 1)
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            key = rec.raw_key_alice
            reading = tracemalloc.get_traced_memory()[1] - retained
        finally:
            tracemalloc.stop()
        assert retained < bytes_per_round * num, \
            f"{retained / num:.2f} B a round"
        # masks and the key itself; an index array would add 8 B a key round
        assert reading < 4 * num, f"reading the key took {reading / num:.2f} B a round"
        assert rec.theta.size == num and 0 < key.size < num

    def test_disagreement_rate_near_half_q(self):
        q = 0.2
        pp = ProtocolParams(n=2)
        atk = depolarizing_attack(DepolarizingParams(q, 0.0, 2))
        sched = expand_theta_schedule(b"d", 20_000, 200)
        rec = run_session(pp, atk, sched, 11, 0.15)
        rates = estimation.bob_disagreement_rates(rec.tallies)
        m = rec.tallies.sift_total
        sigma = math.sqrt(0.1 * 0.9 / m)
        assert np.all(np.abs(rates - q / 2) <= 4 * sigma)

    def test_no_ctrl_rounds_leaves_estimators_empty(self):
        pp = ProtocolParams(n=1)
        sched = ThetaSchedule(num_rounds=50, ctrl_indices=())
        rec = run_session(pp, identity_attack(1), sched, 3, 0.1)
        with pytest.raises(estimation.NoDataError):
            estimation.estimate_p_ghz(rec.tallies)
        with pytest.raises(estimation.NoDataError):
            estimation.estimate_branch_norms(rec.tallies)

    def test_same_seed_reproduces(self):
        pp = ProtocolParams(n=2)
        atk = depolarizing_attack(DepolarizingParams(0.2, 0.1, 2))
        sched = expand_theta_schedule(b"r", 300, 30)
        r1 = run_session(pp, atk, sched, 42, 0.1)
        r2 = run_session(pp, atk, sched, 42, 0.1)
        np.testing.assert_array_equal(r1.raw_key_alice, r2.raw_key_alice)
        for col in ("theta", "a", "b", "c", "ghz_pass"):
            np.testing.assert_array_equal(getattr(r1, col), getattr(r2, col))

    @pytest.mark.parametrize("chunk", [2, 3, 4096])
    def test_chunk_invariance(self, monkeypatch, chunk):
        pp = ProtocolParams(n=3)
        atk = depolarizing_attack(DepolarizingParams(0.2, 0.1, 3))
        sched = expand_theta_schedule(b"chunks", 5000, 300)
        ref = run_session(pp, atk, sched, 8, 0.2)
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        rec = run_session(pp, atk, sched, 8, 0.2)
        for col in ("theta", "a", "b", "c", "ghz_pass", "disclosed",
                    "raw_key_alice", "raw_key_bobs"):
            np.testing.assert_array_equal(getattr(rec, col), getattr(ref, col))
        assert estimation.tally_to_text(rec.tallies) == \
            estimation.tally_to_text(ref.tallies)

    def test_round_uniforms_follow_the_counter_layout(self, monkeypatch):
        # round j draws Philox4x64 uniforms 2(j-1) and 2(j-1) + 1 of the
        # session key, four to a counter step; chunks of 7 rounds start
        # inside a counter step
        monkeypatch.setattr(protocol, "_CHUNK", 7)
        n, d, seed, frac = 2, 4, 8, 0.3
        atk = depolarizing_attack(DepolarizingParams(0.2, 0.1, n))
        sched = expand_theta_schedule(b"layout", 300, 40)
        rec = run_session(ProtocolParams(n=n), atk, sched, seed, frac)
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        ctrl = round_statistics(atk, 0)
        sift_cum = np.cumsum(round_statistics(atk, 1).abc_joint.ravel())
        z_cum = np.cumsum(ctrl.ctrl_az.ravel())
        position = {j: k for k, j in enumerate(sched.ctrl_indices)}
        kept = []
        for j in range(1, 301):
            pos = 2 * (j - 1)
            gen = np.random.Generator(np.random.Philox(key=key, counter=pos // 4))
            u, v = gen.random(pos % 4 + 2)[-2:]
            got = (rec.a[j - 1], rec.b[j - 1], rec.c[j - 1], rec.ghz_pass[j - 1])
            if j in position and position[j] % 2 == 0:
                assert got == (-1, -1, -1, int(u < ctrl.p_ghz))
            elif j in position:
                az = np.searchsorted(z_cum / z_cum[-1], u, side="right")
                assert got == (az // d, -1, az % d, -1)
            else:
                abc = np.searchsorted(sift_cum / sift_cum[-1], u, side="right")
                assert got == np.unravel_index(abc, (2, d, d)) + (-1,)
                if v >= frac:  # not disclosed, so a key round
                    kept.append(j - 1)
        np.testing.assert_array_equal(rec.raw_key_alice, rec.a[kept])
        assert rec.tallies.sift_total == (rec.theta == 1).sum() - len(kept)

    def test_generator_seed(self):
        pp = ProtocolParams(n=1)
        sched = expand_theta_schedule(b"g", 200, 20)
        r1 = run_session(pp, identity_attack(1), sched, np.random.default_rng(4))
        r2 = run_session(pp, identity_attack(1), sched, np.random.default_rng(4))
        np.testing.assert_array_equal(r1.a, r2.a)

    def test_negative_seed_rejected(self):
        sched = expand_theta_schedule(b"f", 10, 2)
        with pytest.raises(DomainError, match="negative"):
            run_session(ProtocolParams(n=1), identity_attack(1), sched, -1)

    def test_bad_fraction(self):
        pp = ProtocolParams(n=1)
        sched = expand_theta_schedule(b"f", 10, 2)
        with pytest.raises(DomainError):
            run_session(pp, identity_attack(1), sched, 1, 1.0)


# ---------------------------------------------------------------------------
# The session loop as it was before SIFT outcomes were drawn through the
# guide table, a whole chunk at a time, and before the raw keys were read
# from the outcome columns.  Its chunk loop and key assembly are kept
# verbatim as the reference, which every SessionRecord column, the
# disclosure mask, both raw keys and the tally text must equal bit for bit;
# its sampler searches the running sums.
# ---------------------------------------------------------------------------


class SearchSampler(RoundSampler):
    def draw_sift(self, u):
        return np.searchsorted(self._sift_cum, u, side="right")


def reference_run_session(params, attack, schedule, rng,
                          cut_and_choose_fraction=0.1):
    base = int(rng.integers(0, 1 << 62)) if isinstance(rng, np.random.Generator) \
        else int(rng)
    gen = np.random.Generator(
        np.random.Philox(key=np.random.SeedSequence(base).generate_state(2, np.uint64)))
    _CHUNK = protocol._CHUNK
    sampler = SearchSampler(attack)
    n, d, num = attack.n, attack.d, schedule.num_rounds
    theta = np.ones(num, dtype=np.int8)
    a, ghz = np.full((2, num), -1, dtype=np.int8)
    b, c = np.full((2, num), -1, dtype=np.min_scalar_type(-d))  # -1 .. d - 1
    shown = np.zeros(num, dtype=bool)
    ctrl = np.asarray(schedule.ctrl_indices, dtype=np.int64) - 1
    tallies = TallyCounts(n=n)
    key_a, key_b = [a[:0]], [b[:0]]  # typed and never empty, for concatenate
    for start in range(0, num, _CHUNK):
        stop = min(start + _CHUNK, num)
        u = gen.random(2 * (stop - start)).reshape(-1, 2)
        th, ca, cb, cc, cg = (col[start:stop] for col in (theta, a, b, c, ghz))
        k0, k1 = np.searchsorted(ctrl, (start, stop))
        at = ctrl[k0:k1] - start
        th[at] = 0
        ghz_at, z_at = at[k0 % 2::2], at[1 - k0 % 2::2]  # even schedule positions
        passed = sampler.draw_ghz(u[ghz_at, 0])
        cg[ghz_at] = passed
        az = sampler.draw_ztest(u[z_at, 0])
        ca[z_at], cc[z_at] = np.divmod(az, d)
        sift = np.flatnonzero(th)
        ab, cc[sift] = np.divmod(sampler.draw_sift(u[sift, 0]), d)
        ca[sift], cb[sift] = np.divmod(ab, d)
        disclosed = u[sift, 1] < cut_and_choose_fraction
        shown[start + sift] = disclosed
        tallies += TallyCounts(
            n=n, ghz_pass=int(passed.sum()), ghz_total=passed.size,
            z_ctrl_counts=np.bincount(az, minlength=2 * d).reshape(2, d),
            sift_joint_counts=np.bincount(ab[disclosed], minlength=2 * d).reshape(2, d),
            sift_total=int(disclosed.sum()))
        kept = sift[~disclosed]
        key_a.append(ca[kept])
        key_b.append(cb[kept])
    bits = np.concatenate(key_b)
    raw_b = np.empty((n, bits.size), dtype=np.uint8)
    for i in range(n):  # row by row: the temporaries stay one key long
        raw_b[i] = (bits >> (n - 1 - i)) & 1
    return SimpleNamespace(theta=theta, a=a, b=b, c=c, ghz_pass=ghz,
                           disclosed=shown, tallies=tallies,
                           raw_key_alice=np.concatenate(key_a).astype(np.uint8),
                           raw_key_bobs=raw_b)


class TestSessionAgainstReference:
    @pytest.mark.parametrize("chunk", [None, 7], ids=["default-chunk", "chunk-7"])
    @pytest.mark.parametrize("frac", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_bit_for_bit(self, monkeypatch, n, frac, chunk):
        if chunk is not None:
            monkeypatch.setattr(protocol, "_CHUNK", chunk)
        atk = depolarizing_attack(DepolarizingParams(0.1, 0.2, n))
        sched = expand_theta_schedule(b"reference", 3000, 400)
        args = (ProtocolParams(n=n), atk, sched, 17, frac)
        rec, ref = run_session(*args), reference_run_session(*args)
        for col in ("theta", "a", "b", "c", "ghz_pass", "disclosed",
                    "raw_key_alice", "raw_key_bobs"):
            got, want = getattr(rec, col), getattr(ref, col)
            assert got.dtype == want.dtype and got.shape == want.shape, col
            assert got.tobytes() == want.tobytes(), col
        assert estimation.tally_to_text(rec.tallies) == \
            estimation.tally_to_text(ref.tallies)
        assert (rec.tallies.sift_total == 0) == (frac == 0.0)
