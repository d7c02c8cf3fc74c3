"""Acceptance criteria, one test per criterion (A1..A7).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances and runtime budgets are pinned here;
nothing is deferred to later calibration.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import a3_random_corpus, catalogue_family
from sqcka import estimation, keyrate, protocol
from sqcka.attacks import (
    DepolarizingParams,
    depolarizing_attack,
    eve_catalogue,
    identity_attack,
    joint_az_analytic,
    p_ghz_analytic,
)
from sqcka.cli import main as cli_main
from sqcka.keyrate import (
    complement_plan,
    depolarizing_entropy_lower,
    exact_entropy_oracle,
    identity_plan,
    pairing_maximize,
    terms_from_plan,
    theorem1_entropy_bound,
)
from sqcka.protocol import (
    ProtocolParams,
    backward_conditionals_exact,
    expand_theta_schedule,
    forward_conditionals_exact,
    round_statistics,
    run_round_exact,
    run_session,
)

GRID = [0.0, 0.1, 0.3, 0.7]
NS = [1, 2, 3]


@contextmanager
def criterion(tag: str, detail: str = ""):
    try:
        yield
    except Exception:
        print(f"{tag} FAIL {detail}")
        raise
    print(f"{tag} PASS {detail}")


def test_a1_soundness_identity_attack():
    t0 = time.monotonic()
    with criterion("A1", "identity attack: exact agreement over 1000 rounds"):
        for n in NS:
            pp = ProtocolParams(n=n)
            sched = expand_theta_schedule(f"a1-{n}", 1000)
            rec = run_session(pp, identity_attack(n), sched, 1000 + n, 0.1)
            t = rec.tallies
            assert t.ghz_total > 0
            assert t.ghz_pass == t.ghz_total, "a GHZ test failed"
            sift = rec.theta == 1
            assert sift.any() and np.isin(rec.a[sift], (0, 1)).all()
            vec = np.where(rec.a[sift] == 1, (1 << n) - 1, 0)
            assert np.array_equal(rec.b[sift], vec), "receivers' string"
            assert np.array_equal(rec.c[sift], vec), "returned string"
            for i in range(n):
                assert np.array_equal(rec.raw_key_alice, rec.raw_key_bobs[i]), \
                    f"receiver {i} key disagrees"
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_a2_dilation_matches_closed_forms():
    t0 = time.monotonic()
    worst = 0.0
    with criterion("A2", "dilated simulation == closed forms within 1e-10"):
        for n in NS:
            pp = ProtocolParams(n=n)
            d = 1 << n
            for q, qt in itertools.product(GRID, GRID):
                params = DepolarizingParams(q, qt, n)
                atk = depolarizing_attack(params)
                cat = eve_catalogue(params)

                dev = np.max(np.abs(forward_conditionals_exact(atk)
                                    - atk.tables.forward))
                bwd = backward_conditionals_exact(atk)
                dev = max(dev, np.max(np.abs(bwd - atk.tables.backward[0])))

                _, _, ctrl = run_round_exact(pp, atk, 0)
                dev = max(dev, abs(ctrl.p_ghz - p_ghz_analytic(params)))

                state, layout, sift = run_round_exact(pp, atk, 1)
                expected_az = np.array([[joint_az_analytic(a, c, params)
                                         for c in range(d)] for a in range(2)])
                dev = max(dev, np.max(np.abs(sift.az_joint - expected_az)))
                expected_pb = atk.tables.forward.mean(axis=0)
                dev = max(dev, np.max(np.abs(sift.pb - expected_pb)))

                expected_norms = np.array(
                    [[[cat.norms[catalogue_family(cat, a, b, c)] for c in range(d)]
                      for b in range(d)] for a in range(2)])
                dev = max(dev, np.max(np.abs(sift.abc_joint - expected_norms)))
                dev = max(dev, abs(sift.cross_overlap - cat.cross_overlap))

                if n <= 2:
                    # every extracted Eve branch pair: orthogonal except the
                    # two all-equal branches, whose overlap is the catalogue's
                    gram_sim = protocol.eve_branch_gram_exact(state, layout)
                    expected = np.zeros_like(gram_sim)
                    np.fill_diagonal(expected, expected_norms.reshape(-1))
                    i000, i111 = 0, 2 * d * d - 1
                    expected[i000, i111] = expected[i111, i000] = cat.cross_overlap
                    dev = max(dev, np.max(np.abs(gram_sim - expected)))
                worst = max(worst, float(dev))
        assert worst <= 1e-10, f"worst deviation {worst:.3e}"
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def _plan_bound(w, gram, plan):
    """The checked entry's bound, asserted equal to the search's evaluator."""
    bound = theorem1_entropy_bound(terms_from_plan(w, gram, plan))
    assert bound == keyrate._plan_value(w, gram, np.asarray(plan.pi1),
                                        np.asarray(plan.pi2))
    return bound


def test_a3_bound_never_exceeds_oracle():
    with criterion("A3", "pairing bound <= exact oracle + 1e-9, all plans"):
        worst = -math.inf
        # (i) the depolarizing grid of A2
        for n in NS:
            d = 1 << n
            for q, qt in itertools.product(GRID, GRID):
                params = DepolarizingParams(q, qt, n)
                atk = depolarizing_attack(params)
                oracle = exact_entropy_oracle(atk)
                w = atk.tables.weights
                plans = [identity_plan(d), complement_plan(d)]
                best_plan, best = pairing_maximize(w, atk.gram)
                plans.append(best_plan)
                for plan in plans:
                    worst = max(worst, _plan_bound(w, atk.gram, plan) - oracle)
                worst = max(worst, best - oracle)
                worst = max(worst,
                            depolarizing_entropy_lower(params, "theorem_exact")
                            - oracle)
        # (ii) 100 randomized table-form attacks at n <= 2
        for n, atk, perms in a3_random_corpus():
            d = 1 << n
            oracle = exact_entropy_oracle(atk)
            w = atk.tables.weights
            plans = [identity_plan(d), complement_plan(d), keyrate.PairingPlan(*perms)]
            _, best = pairing_maximize(w, atk.gram)
            for plan in plans:
                worst = max(worst, _plan_bound(w, atk.gram, plan) - oracle)
            worst = max(worst, best - oracle)
        assert worst <= 1e-9, f"bound exceeded oracle by {worst:.3e}"

        # noiseless saturation at 1 bit
        atk0 = identity_attack(2)
        oracle0 = exact_entropy_oracle(atk0)
        bound0 = _plan_bound(atk0.tables.weights, atk0.gram, complement_plan(4))
        assert abs(oracle0 - 1.0) <= 1e-10, f"oracle {oracle0!r}"
        assert abs(bound0 - 1.0) <= 1e-10, f"bound {bound0!r}"


def test_a4_normalization_identities():
    with criterion("A4", "mass/row/total normalization identities"):
        # catalogue mass on a 20x20 grid for n = 1..6
        for n in range(1, 7):
            for q in np.linspace(0.0, 1.0, 20):
                for qt in np.linspace(0.0, 1.0, 20):
                    cat = eve_catalogue(DepolarizingParams(q, qt, n))
                    assert abs(cat.total_mass() - 1.0) <= 1e-12
        # branch-norm rows and joint p(a, c) totals
        for n in NS:
            d = 1 << n
            for q, qt in itertools.product((0.0, 0.25, 0.8), repeat=2):
                params = DepolarizingParams(q, qt, n)
                stats = round_statistics(depolarizing_attack(params), 0)
                np.testing.assert_allclose(stats.branch_norms.sum(axis=1), 1.0,
                                           atol=1e-12)
                for mode in ("corrected", "paper_literal"):
                    total = sum(joint_az_analytic(a, c, params, mode)
                                for a in range(2) for c in range(d))
                    assert abs(total - 1.0) <= 1e-12


def test_a5_estimators_recover_targets():
    t0 = time.monotonic()
    rounds = 100_000
    q, qt = 0.2, 0.1
    with criterion("A5", f"Monte Carlo estimation, {rounds} rounds, 3 radii @99%"):
        for n in NS:
            params = DepolarizingParams(q, qt, n)
            atk = depolarizing_attack(params)
            cat = eve_catalogue(params)
            d = 1 << n
            pp = ProtocolParams(n=n)
            sched = expand_theta_schedule(f"a5-{n}", rounds, 20_000)
            rec = run_session(pp, atk, sched, 505 + n, 0.1)
            t = rec.tallies

            est = estimation.estimate_p_ghz(t, confidence=0.99)
            assert abs(est.value - p_ghz_analytic(params)) <= 3 * est.radius

            norms = estimation.estimate_branch_norms(t)
            z_total = int(t.z_ctrl_counts.sum())
            r_z = estimation.hoeffding_radius(z_total, 0.99)
            ana = round_statistics(atk, 0).branch_norms
            assert np.max(np.abs(norms - ana)) <= 3 * 2 * r_z

            cond = estimation.estimate_channel_conditionals(t)
            row_counts = t.sift_joint_counts.sum(axis=1)
            for a in range(2):
                r_row = estimation.hoeffding_radius(int(row_counts[a]), 0.99)
                assert np.max(np.abs(cond[a] - atk.tables.forward[a])) <= 3 * r_row

            rates = estimation.bob_disagreement_rates(t)
            r_s = estimation.hoeffding_radius(t.sift_total, 0.99)
            assert np.max(np.abs(rates - q / 2)) <= 3 * r_s

            re_radius = 2 * est.radius + 2 * r_z
            re = estimation.estimate_re_overlap(est.value, norms[0, 0],
                                                norms[1, d - 1],
                                                slack=3 * re_radius)
            assert abs(re - 2 * cat.cross_overlap) <= 3 * re_radius
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_a6_figure_level_claims(tmp_path):
    t0 = time.monotonic()
    with criterion("A6", "figure-level qualitative claims (both modes)"):
        assert cli_main(["figures", "--out", str(tmp_path)]) == 0

        # (a) zero forward noise: positive rate across the backward range
        for n in (3, 5, 7):
            for mode in keyrate.MODES:
                for qt in np.arange(0.05, 0.951, 0.05):
                    rep = keyrate.depolarizing_keyrate(
                        DepolarizingParams(0.0, float(qt), n), mode)
                    assert rep.r_min > 0.0, (n, mode, qt)

        rows = (tmp_path / "thresholds.csv").read_text().strip().splitlines()[1:]
        crossings = {}
        for row in rows:
            fig, n, mode, val = row.split(",")
            crossings[(fig, int(n), mode)] = float(val) if val else None

        # (b) zero backward noise: one crossing in (0, 0.5), non-decreasing
        for mode in keyrate.MODES:
            prev = 0.0
            for n in (3, 5, 7):
                x = crossings[("fig4b", n, mode)]
                assert x is not None and 0.0 < x < 0.5
                assert x >= prev - 1e-12
                prev = x
                signs = [keyrate.depolarizing_keyrate(
                    DepolarizingParams(float(qq), 0.0, n), mode).r_min
                    for qq in np.arange(0.0025, 0.5, 0.0025)]
                flips = sum(1 for i in range(1, len(signs))
                            if signs[i - 1] > 0.0 > signs[i])
                assert flips == 1, f"crossing not unique: {flips}"
        assert any(0.12 <= crossings[("fig4b", n, mode)] <= 0.32
                   for n in (3, 5, 7) for mode in keyrate.MODES)

        # (c) symmetric sweep: crossings non-decreasing, inside (0.10, 0.30)
        for mode in keyrate.MODES:
            prev = 0.0
            for n in (3, 5, 7):
                x = crossings[("fig3", n, mode)]
                assert x is not None and 0.10 < x < 0.30
                assert x >= prev - 1e-12
                prev = x
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_a7_mode_factor_two_exact():
    rng = np.random.default_rng(707)
    with criterion("A7", "paper_literal == theorem_exact / 2, exactly"):
        for n in (1, 2, 3, 5, 10):
            for q in np.linspace(0.0, 1.0, 21):
                for qt in np.linspace(0.0, 1.0, 21):
                    p = DepolarizingParams(q, qt, n)
                    lit = depolarizing_entropy_lower(p, "paper_literal")
                    thm = depolarizing_entropy_lower(p, "theorem_exact")
                    assert thm == 2.0 * lit
        for _ in range(200):
            p = DepolarizingParams(float(rng.random()), float(rng.random()),
                                   int(rng.integers(1, 12)))
            assert depolarizing_entropy_lower(p, "theorem_exact") == \
                2.0 * depolarizing_entropy_lower(p, "paper_literal")
