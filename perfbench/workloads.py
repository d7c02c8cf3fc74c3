"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

A workload is built once from its seed (the set-up), then runs identical
passes.  ``run_pass`` does only the program's work and returns its raw
outputs; ``check`` inspects them afterwards, outside the timed region, and
returns a list of failure messages.  None of the checks compares against a
stored copy of earlier output: each one tests a property the method must
have, or a value computed apart from the code path under test.

An *operation* is a session, an exact round evaluation, one attack's
bound-versus-oracle comparison, or a CLI command.  Every pass attempts the
same operations, so failures are the same share of attempts in every run.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
import traceback
from functools import reduce
from pathlib import Path

import numpy as np

from sqcka import attacks, cli, estimation, keyrate, protocol
from sqcka.attacks import DepolarizingParams

#: Estimates must land within this many 99% Hoeffding radii (as in A5).
HOEFFDING_RADII = 3.0
CONFIDENCE = 0.99
ROUTE_ATOL = 1e-10


class Attempts:
    """Counts operations; a raising operation is a failure, not a crash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # reported and counted; the pass goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``sqcka <argv>`` in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def hoeffding(count: int) -> float:
    """Two-sided Hoeffding half-width at CONFIDENCE, computed here."""
    return math.sqrt(math.log(2.0 / (1.0 - CONFIDENCE)) / (2.0 * count))


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r + (r * r < n)


def _close(name: str, got, want, atol: float, failures: list[str]) -> None:
    dev = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    if not dev <= atol:
        failures.append(f"{name}: deviation {dev:.3e} > {atol:g}")


def check_session(label: str, rc, stdout: str, tally_text: str, n: int,
                  rounds: int, q: float, qtilde: float) -> list[str]:
    """Round conservation, CTRL count, snapshot round trip, Hoeffding radii."""
    failures: list[str] = []
    if rc != 0:
        return [f"{label}: simulate exited {rc}"]
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    key_len = int(fields["raw key length"])
    tallies = estimation.tally_from_text(tally_text)
    if estimation.tally_to_text(tallies) != tally_text:
        failures.append(f"{label}: tally snapshot does not round-trip")
    if tallies.n != n:
        failures.append(f"{label}: snapshot is for n={tallies.n}, ran n={n}")
    ztests = int(tallies.z_ctrl_counts.sum())
    total = tallies.ghz_total + ztests + tallies.sift_total + key_len
    if total != rounds:
        failures.append(f"{label}: rounds not conserved ({total} != {rounds})")
    if tallies.ghz_total + ztests != ceil_sqrt(rounds):
        failures.append(f"{label}: {tallies.ghz_total + ztests} CTRL rounds, "
                        f"expected ceil(sqrt({rounds})) = {ceil_sqrt(rounds)}")

    params = DepolarizingParams(q, qtilde, n)
    p_ghz = tallies.ghz_pass / tallies.ghz_total
    printed = float(fields["p_ghz estimate"].split()[0])
    if abs(printed - p_ghz) > 1e-8:
        failures.append(f"{label}: printed p_ghz {printed} != tally ratio {p_ghz}")
    radius = HOEFFDING_RADII * hoeffding(tallies.ghz_total)
    if abs(p_ghz - attacks.p_ghz_analytic(params)) > radius:
        failures.append(f"{label}: p_ghz {p_ghz} outside {radius:.3g} of analytic")

    expected = np.array([[2.0 * attacks.joint_az_analytic(a, c, params, "corrected")
                         for c in range(1 << n)] for a in range(2)])
    _close(f"{label}: branch norms", 2.0 * tallies.z_ctrl_counts / ztests, expected,
           2.0 * HOEFFDING_RADII * hoeffding(ztests), failures)

    counts = tallies.sift_joint_counts
    strings = np.arange(1 << n)
    for i in range(n):
        bit = (strings >> (n - 1 - i)) & 1
        wrong = counts[0, bit == 1].sum() + counts[1, bit == 0].sum()
        rate = wrong / tallies.sift_total
        if abs(rate - q / 2.0) > HOEFFDING_RADII * hoeffding(tallies.sift_total):
            failures.append(f"{label}: receiver {i} disagreement {rate} far from Q/2")
    return failures


# ---------------------------------------------------------------------------
# session: the sampled Monte Carlo path through `sqcka simulate`
# ---------------------------------------------------------------------------


class Session:
    """``sqcka simulate`` at n = 3, Q = 0.1, Q~ = 0.2, one session per pass."""

    N, Q, QTILDE = 3, 0.1, 0.2

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.rounds = 2_000 if quick else 100_000
        self.session_seed = int(rng.integers(1, 1 << 31))
        self.tally_path = workdir / "session-tallies.txt"
        self.first_snapshot = None

    def work_units(self) -> int:
        return self.rounds

    def run_pass(self, attempt: Attempts):
        return attempt(run_cli, [
            "simulate", "--n", str(self.N), "--q", str(self.Q),
            "--qtilde", str(self.QTILDE), "--rounds", str(self.rounds),
            "--seed", str(self.session_seed), "--out", str(self.tally_path)])

    def check(self, out) -> list[str]:
        if out is None:
            return []
        text = self.tally_path.read_text(encoding="utf-8")
        failures = check_session("session", out[0], out[1], text, self.N,
                                 self.rounds, self.Q, self.QTILDE)
        if self.first_snapshot is None:
            self.first_snapshot = text
        elif text != self.first_snapshot:
            failures.append("session: same seed gave a different tally snapshot")
        return failures


# ---------------------------------------------------------------------------
# exact: three-route cross-validation of exact round statistics
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def _on(nq: int, placed: dict[int, np.ndarray]) -> np.ndarray:
    return reduce(np.kron, [placed.get(i, _I2) for i in range(nq)])


def _cswap(nq: int, ctrl: int, i: int, j: int) -> np.ndarray:
    swap_terms = sum(_on(nq, {ctrl: _P1, i: p, j: p}) for p in (_I2, _X, _Y, _Z))
    return _on(nq, {ctrl: _P0}) + 0.5 * swap_terms


def dense_round_n1(q: float, qtilde: float, theta: int) -> dict[str, np.ndarray]:
    """n = 1 dilated round built from dense ``np.kron`` operators.

    Qubits: A, T, [B], E1, E2, E3, Et1, Et2, Et3.  Each depolarizing leg
    swaps T with half of a Bell pair, controlled by a qubit prepared as
    sqrt(1-Q)|0> + sqrt(Q)|1>; the receiver copies T into B by a CNOT.
    """
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
    ctrl = lambda s: np.array([math.sqrt(1.0 - s), math.sqrt(s)], dtype=complex)
    mem = [np.array([1, 0], dtype=complex)] if theta == 1 else []
    psi = reduce(np.kron, [bell] + mem + [bell, ctrl(q), bell, ctrl(qtilde)])
    nq = 8 + theta
    e1 = 2 + theta
    psi = _cswap(nq, e1 + 2, 1, e1) @ psi
    if theta == 1:
        psi = (_on(nq, {1: _P0}) + _on(nq, {1: _P1, 2: _X})) @ psi
    psi = _cswap(nq, e1 + 5, 1, e1 + 3) @ psi
    amps = psi.reshape((2,) * nq)
    probs = np.abs(amps) ** 2
    if theta == 1:
        joint = probs.sum(axis=tuple(range(3, nq))).transpose(0, 2, 1)  # (A, B, T)
        cross = np.vdot(amps[0, 0, 0].ravel(), amps[1, 1, 1].ravel()).real
        return {"abc_joint": joint, "cross_overlap": cross}
    ctrl_az = probs.sum(axis=tuple(range(2, nq)))
    branch = (amps[0, 0] + amps[1, 1]).ravel() / math.sqrt(2.0)
    return {"ctrl_az": ctrl_az, "p_ghz": np.vdot(branch, branch).real,
            "re_overlap": 2.0 * np.vdot(amps[0, 0].ravel(), amps[1, 1].ravel()).real}


_FIELDS = {0: ("pa", "p_ghz", "ctrl_az", "branch_norms", "re_overlap"),
           1: ("pa", "abc_joint", "az_joint", "pb", "cross_overlap")}


class Exact:
    """Dilated, Gram-embedded and analytic round statistics for n = 1..3."""

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        ns, per_n = ((1, 2), 1) if quick else ((1, 2, 3), 2)
        self.points = [DepolarizingParams(*np.round(rng.uniform(0.05, 0.45, 2), 4), n)
                       for n in ns for _ in range(per_n)]

    def work_units(self) -> int:
        return 8 * len(self.points)  # 6 round evaluations + 2 conditionals

    def run_pass(self, attempt: Attempts):
        results = []
        for params in self.points:
            pp = protocol.ProtocolParams(n=params.n)
            dilated = attacks.depolarizing_attack(params)
            embedded = attacks.attack_from_tables(dilated.tables, dilated.gram,
                                                  label="embedded")
            routes = {}
            for theta in (0, 1):
                routes[theta] = (
                    attempt(lambda: protocol.run_round_exact(pp, dilated, theta)[2]),
                    attempt(lambda: protocol.run_round_exact(pp, embedded, theta)[2]),
                    attempt(protocol.round_statistics, dilated, theta))
            fwd = attempt(protocol.forward_conditionals_exact, dilated)
            bwd = attempt(protocol.backward_conditionals_exact, dilated)
            results.append((params, dilated.tables, routes, fwd, bwd))
        return results

    def check(self, results) -> list[str]:
        failures: list[str] = []
        for params, tables, routes, fwd, bwd in results:
            tag = f"exact n={params.n} q={params.q} qt={params.qtilde}"
            for theta, (dil, emb, ana) in routes.items():
                if None in (dil, emb, ana):
                    continue
                for name in _FIELDS[theta]:
                    for route, stats in (("dilated", dil), ("embedded", emb)):
                        _close(f"{tag} theta={theta} {name} {route} vs analytic",
                               getattr(stats, name), getattr(ana, name),
                               ROUTE_ATOL, failures)
                for route, stats in (("dilated", dil), ("embedded", emb),
                                     ("analytic", ana)):
                    _close(f"{tag} theta={theta} {route} p_A", stats.pa, 0.5,
                           ROUTE_ATOL, failures)
                if theta == 0:
                    _close(f"{tag} p_ghz vs p_ghz_analytic", dil.p_ghz,
                           attacks.p_ghz_analytic(params), ROUTE_ATOL, failures)
                if params.n == 1:
                    for name, want in dense_round_n1(params.q, params.qtilde,
                                                     theta).items():
                        _close(f"{tag} theta={theta} {name} vs dense kron",
                               getattr(dil, name), want, ROUTE_ATOL, failures)
            if fwd is not None:
                _close(f"{tag} forward conditionals", fwd, tables.forward,
                       ROUTE_ATOL, failures)
            if bwd is not None:
                for a in range(2):
                    _close(f"{tag} backward conditionals", bwd, tables.backward[a],
                           ROUTE_ATOL, failures)
        return failures


# ---------------------------------------------------------------------------
# bound: pairing search against the exact entropy oracle
# ---------------------------------------------------------------------------


class Bound:
    """Random table attacks and depolarizing attacks at n = 1..4, plus verify."""

    #: (random table attacks, depolarizing attacks) per n.
    COUNTS = {1: (4, 4), 2: (3, 3), 3: (4, 4), 4: (2, 2)}
    QUICK_COUNTS = {1: (2, 2), 2: (1, 1)}

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.specs = []
        for n, (n_random, n_depol) in (self.QUICK_COUNTS if quick else self.COUNTS).items():
            d = 1 << n
            dim = 2 * d * d
            for _ in range(n_random):
                fwd = rng.dirichlet(np.ones(d), size=2)
                bwd = rng.dirichlet(np.ones(d), size=(2, d))
                vecs = rng.normal(size=(dim, max(2, dim // 2)))
                vecs /= np.linalg.norm(vecs, axis=1)[:, None]
                gram = (vecs @ vecs.T).reshape(2, d, d, 2, d, d)
                self.specs.append(("random", n, (fwd, bwd, gram)))
            for _ in range(n_depol):
                q, qtilde = rng.uniform(0.02, 0.45, 2)
                self.specs.append(("depolarizing", n,
                                   DepolarizingParams(float(q), float(qtilde), n)))

    def work_units(self) -> int:
        return len(self.specs)

    @staticmethod
    def _compare(kind, spec):
        if kind == "random":
            fwd, bwd, gram = spec
            atk = attacks.attack_from_tables(
                attacks.ConditionalChannelTable(fwd, bwd), gram, label="random")
        else:
            atk = attacks.depolarizing_attack(spec)
        w = np.einsum("ab,abc->abc", atk.tables.forward, atk.tables.backward)
        _, best = keyrate.pairing_maximize(w, atk.gram)
        return w, atk.gram, best, keyrate.exact_entropy_oracle(atk)

    def run_pass(self, attempt: Attempts):
        t0 = time.perf_counter()
        compared = [attempt(self._compare, kind, spec) for kind, _, spec in self.specs]
        compare_s = time.perf_counter() - t0
        verify = attempt(run_cli, ["verify"])
        return compared, verify, compare_s

    def check(self, out) -> list[str]:
        compared, verify, _ = out
        failures: list[str] = []
        for (kind, n, spec), res in zip(self.specs, compared):
            if res is None:
                continue
            w, gram, best, oracle = res
            tag = f"bound {kind} n={n}"
            if not best <= oracle + 1e-9:
                failures.append(f"{tag}: bound {best} exceeds oracle {oracle}")
            ident = keyrate.theorem1_entropy_bound(
                keyrate.terms_from_plan(w, gram, keyrate.identity_plan(1 << n)))
            if not best >= ident - 1e-12:
                failures.append(f"{tag}: search {best} below identity plan {ident}")
            if kind == "depolarizing":
                exact = keyrate.depolarizing_entropy_lower(spec, "theorem_exact")
                literal = keyrate.depolarizing_entropy_lower(spec, "paper_literal")
                if not abs(best - exact) <= 1e-12:
                    failures.append(f"{tag}: search {best} != theorem_exact {exact}")
                if exact != 2.0 * literal:
                    failures.append(f"{tag}: theorem_exact {exact} != 2 * {literal}")
        for n in (1, 2, 3):
            value = keyrate.exact_entropy_oracle(attacks.identity_attack(n))
            if not abs(value - 1.0) <= 1e-10:
                failures.append(f"bound: identity-attack oracle at n={n} is {value}")
        if verify is not None and (verify[0] != 0
                                   or not verify[1].splitlines()[-1].startswith("OK")):
            failures.append(f"bound: verify exited {verify[0]}")
        return failures


# ---------------------------------------------------------------------------
# large-n: analytic path at scale
# ---------------------------------------------------------------------------


def _binary_entropy(x: float) -> float:
    return 0.0 if x in (0.0, 1.0) else -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


class LargeN:
    """simulate at n = 4 and 5, figures, and one sweep run twice."""

    ROUNDS = 10_000

    def __init__(self, seed: int, quick: bool, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        rounds = 500 if quick else self.ROUNDS
        self.sims = [(n, rounds, *np.round(rng.uniform(0.02, 0.3, 2), 4),
                      int(rng.integers(1, 1 << 31)), workdir / f"large-tallies-{n}.txt")
                     for n in ((4,) if quick else (4, 5))]
        q0, qt0 = np.round(rng.uniform(0.0, 0.2, 2), 2)
        self.sweep_args = ["sweep", "--n", "3,10", "--q", f"{q0}:{q0 + 0.25:.2f}",
                           "--qtilde", f"{qt0}:{qt0 + 0.25:.2f}", "--q-step", "0.01"]
        self.sweep_paths = (workdir / "sweep-a.csv", workdir / "sweep-b.csv")
        self.figures = workdir / "figures"

    def work_units(self) -> int:
        return len(self.sims) + 3

    def run_pass(self, attempt: Attempts):
        sims = [attempt(run_cli, ["simulate", "--n", str(n), "--q", str(q),
                                  "--qtilde", str(qt), "--rounds", str(rounds),
                                  "--seed", str(seed), "--out", str(path)])
                for n, rounds, q, qt, seed, path in self.sims]
        figures = attempt(run_cli, ["figures", "--out", str(self.figures)])
        sweeps = [attempt(run_cli, self.sweep_args + ["--out", str(path)])
                  for path in self.sweep_paths]
        return sims, figures, sweeps

    def check(self, out) -> list[str]:
        sims, figures, sweeps = out
        failures: list[str] = []
        for (n, rounds, q, qt, _, path), res in zip(self.sims, sims):
            if res is not None:
                failures += check_session(f"large-n simulate n={n}", res[0], res[1],
                                          path.read_text(encoding="utf-8"), n,
                                          rounds, q, qt)
        if None not in sweeps:
            failures += self._check_sweep()
        if figures is not None:
            failures += self._check_thresholds()
        return failures

    def _check_sweep(self) -> list[str]:
        failures: list[str] = []
        first, second = (p.read_bytes() for p in self.sweep_paths)
        if first != second:
            failures.append("large-n: two identical sweeps differ")
        rows = first.decode("utf-8").splitlines()[1:]
        if not rows:
            return failures + ["large-n: sweep wrote no rows"]
        for row in rows:
            n_s, q_s, qt_s, mode, *nums = row.split(",")
            n, q, qt = int(n_s), float(q_s), float(qt_s)
            p_ghz, q_bob, s_lower, leakage, r_min = map(float, nums)
            cat = attacks.eve_catalogue(DepolarizingParams(q, qt, n))
            if abs(cat.total_mass() - 1.0) > 1e-12:
                failures.append(f"large-n: catalogue mass {cat.total_mass()} at {row}")
            # each value is printed to 9 significant digits: 5e-9 relative
            scale = 5e-9 * (abs(s_lower) + abs(leakage) + abs(r_min)) + 1e-15
            if abs(r_min - (s_lower - leakage)) > scale:
                failures.append(f"large-n: r_min != s_lower - leakage at {row}")
            q_ghz = q + qt - q * qt
            want = (1.0 - q_ghz * (1.0 - 0.5 ** (n + 1)), q / 2.0,
                    _binary_entropy(q / 2.0))
            for got, ref in zip((p_ghz, q_bob, leakage), want):
                if abs(got - ref) > 1e-8 * max(1.0, abs(ref)):
                    failures.append(f"large-n: sweep value {got} != {ref} at {row}")
        return failures

    def _check_thresholds(self) -> list[str]:
        failures: list[str] = []
        slices = {"fig3": lambda x: (x, x), "fig4a": lambda x: (0.0, x),
                  "fig4b": lambda x: (x, 0.0)}
        rows = (self.figures / "thresholds.csv").read_text().splitlines()[1:]
        if len(rows) != len(slices) * len(cli.FIGURE_NS) * len(keyrate.MODES):
            failures.append(f"large-n: thresholds.csv has {len(rows)} rows")
        tol = cli.BISECT_TOL
        for row in rows:
            fig, n_s, mode, crossing = row.split(",")
            if not crossing:
                continue
            x = float(crossing)

            def rate(v):
                q, qt = slices[fig](v)
                return keyrate.depolarizing_keyrate(
                    DepolarizingParams(q, qt, int(n_s)), mode).r_min

            if not (rate(x - tol) > 0.0 >= rate(min(x + tol, 1.0))):
                failures.append(f"large-n: crossing {row} does not bracket a sign change")
        return failures


WORKLOADS = {"session": Session, "exact": Exact, "bound": Bound, "large-n": LargeN}
