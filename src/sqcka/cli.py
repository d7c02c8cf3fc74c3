"""Batch front-end: verification suite, sweeps, figure data, simulation.

Commands::

    sqcka verify   [--attack-file F]
    sqcka sweep    --n 3,5 --q 0:0.5 --qtilde 0.2 --q-step 0.05 [--out F]
    sqcka figures  [--out DIR]
    sqcka simulate --n 2 --q 0.1 --qtilde 0.2 --rounds 100000 --seed 7 ...

Outputs are deterministic: identical arguments and seed give byte-identical
CSV files and reports.  Numbers are printed with 9 significant digits.
``sweep`` and ``figures`` evaluate the closed-form rates over whole
(Q, Q~) grids, one array call per (n, mode), and format each value once.

Custom attacks are plain-text files with ``#`` comments and three sections::

    FORWARD             # rows: a b prob        (p(b|a), all 2d entries)
    BACKWARD            # rows: a b bprime prob (p'(b'|a,b))
    GRAM                # rows: a b bprime a2 c cprime re_value (optional)

Strings are integer indices (big-endian bits).  Omitted GRAM entries
default to orthonormal eavesdropper vectors; the listed ones are the edges
of a graph whose connected components become the blocks of the attack's
``EveGram``.  Attacks are built for n <= 10.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import estimation, keyrate, protocol, qmath
from .attacks import (
    CollectiveAttack,
    DepolarizingParams,
    depolarizing_attack,
    eve_catalogue,
    identity_attack,
    load_attack_file,
    p_ghz_analytic,
)
from .keyrate import MODES

FIGURE_NS = (3, 5, 7)
FIGURE_STEP = 0.005
BISECT_TOL = 1e-4

#: Cap on the points of one strength grid and on the rows of one sweep.
GRID_CAP = 10 ** 6


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _fmt_all(values) -> list[str]:
    """``_fmt`` of every element of an array, in C order."""
    return [format(x, ".9g") for x in np.ravel(values).tolist()]


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Simulation settings; config-file keys mirror the field names."""

    n: int = 2
    q: float = 0.0
    qtilde: float = 0.0
    rounds: int = 1000
    seed: int = 1
    ctrl_count: int | None = None
    cc_fraction: float = 0.1
    attack_file: str | None = None
    out: str | None = None


_CONFIG_CASTS = {
    "n": int, "q": float, "qtilde": float, "rounds": int, "seed": int,
    "ctrl_count": int, "cc_fraction": float, "attack_file": str, "out": str,
}


def load_run_config(path) -> RunConfig:
    """Parse a flat key=value config file."""
    cfg = RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise qmath.ValidationError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_CASTS:
                raise qmath.ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, _CONFIG_CASTS[key](val))
            except ValueError as exc:
                raise qmath.ValidationError(f"{path}:{lineno}: bad {key} ({exc})") from None
    return cfg


def _attack_from_config(cfg: RunConfig) -> CollectiveAttack:
    if cfg.attack_file:
        atk = load_attack_file(cfg.attack_file)
        if atk.n != cfg.n:
            raise qmath.ValidationError(
                f"attack file is for n={atk.n}, config says n={cfg.n}")
        return atk
    if cfg.q == 0.0 and cfg.qtilde == 0.0:
        return identity_attack(cfg.n)
    return depolarizing_attack(DepolarizingParams(cfg.q, cfg.qtilde, cfg.n))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _random_table_attack(rng: np.random.Generator, n: int) -> CollectiveAttack:
    from .attacks import ConditionalChannelTable, attack_from_tables

    d = 1 << n
    fwd = rng.dirichlet(np.ones(d), size=2)
    bwd = rng.dirichlet(np.ones(d), size=(2, d))
    dim = 2 * d * d
    vecs = rng.normal(size=(dim, max(2, dim // 2)))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    gram = (vecs @ vecs.T).reshape(2, d, d, 2, d, d)
    return attack_from_tables(ConditionalChannelTable(fwd, bwd), gram, label="random")


def _verify_checks(attack_file: str | None):
    """Yield (name, passed, detail) for every invariant check."""
    rng = np.random.default_rng(20240901)

    # --- linear-algebra layer ---------------------------------------------
    dev = 0.0
    for _ in range(5):
        dim = int(rng.integers(2, 9))
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(mat)
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amp /= np.linalg.norm(amp)
        state = qmath.StateVector(amp)
        layout = qmath.RegisterLayout([("X", dim)])
        out = qmath.apply_on_subsystems(u, state, layout, ("X",))
        dev = max(dev, abs(out.norm() - 1.0))
    yield "unitary-norm-preservation", dev <= 1e-12, f"max |norm-1| {dev:.2e}"

    layout = qmath.RegisterLayout([("A", 2), ("B", 2), ("C", 3)])
    amp = rng.normal(size=12) + 1j * rng.normal(size=12)
    amp /= np.linalg.norm(amp)
    rho = qmath.density_from_state(qmath.StateVector(amp))
    one = qmath.partial_trace(qmath.partial_trace(rho, layout, ("A", "B")),
                              layout.restrict(("A", "B")), ("A",))
    two = qmath.partial_trace(rho, layout, ("A",))
    dev = float(np.max(np.abs(one.entries - two.entries)))
    yield "partial-trace-composition", dev <= 1e-12, f"max entry dev {dev:.2e}"

    probs = rng.dirichlet(np.ones(6))
    rho = qmath.DensityOperator(np.diag(probs.astype(complex)))
    s_direct = -(probs * np.log2(probs)).sum()
    dev = abs(qmath.von_neumann_entropy(rho) - s_direct)
    yield "entropy-spectrum-agreement", dev <= 1e-10, f"dev {dev:.2e}"

    joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
    rho = qmath.DensityOperator(np.diag(joint.ravel().astype(complex)))
    lay = qmath.RegisterLayout([("A", 3), ("E", 4)])
    pe = joint.sum(axis=0)
    shannon = -(joint[joint > 0] * np.log2(joint[joint > 0])).sum() \
        + (pe[pe > 0] * np.log2(pe[pe > 0])).sum()
    dev = abs(qmath.conditional_entropy(rho, lay, ("A",), ("E",)) - shannon)
    yield "classical-conditional-entropy", dev <= 1e-9, f"dev {dev:.2e}"

    # --- attack layer -------------------------------------------------------
    dev = 0.0
    for (q, qt, n) in ((0.1, 0.2, 1), (0.3, 0.7, 2)):
        params = DepolarizingParams(q, qt, n)
        atk = depolarizing_attack(params)
        pp = protocol.ProtocolParams(n=n)
        for theta in (0, 1):
            _, _, sim = protocol.run_round_exact(pp, atk, theta)
            ana = protocol.round_statistics(atk, theta)
            if theta == 0:
                dev = max(dev, abs(sim.p_ghz - ana.p_ghz),
                          float(np.max(np.abs(sim.ctrl_az - ana.ctrl_az))))
            else:
                dev = max(dev, float(np.max(np.abs(sim.abc_joint - ana.abc_joint))))
    yield "dilation-analytic-agreement", dev <= 1e-10, f"max dev {dev:.2e}"

    grid = np.linspace(0.0, 1.0, 20)
    cat = eve_catalogue(DepolarizingParams(grid[:, None, None], grid[None, :, None],
                                           np.arange(1, 7)))
    dev = float(np.max(np.abs(cat.total_mass() - 1.0)))
    yield "catalogue-normalization", dev <= 1e-12, f"max |mass-1| {dev:.2e}"

    # --- entropy bound layer -------------------------------------------------
    worst = -math.inf
    for (q, qt, n) in ((0.0, 0.0, 1), (0.1, 0.2, 2), (0.3, 0.1, 2), (0.2, 0.2, 3)):
        params = DepolarizingParams(q, qt, n)
        atk = depolarizing_attack(params)
        oracle = keyrate.exact_entropy_oracle(atk)
        bound = keyrate.depolarizing_entropy_lower(params, "theorem_exact")
        worst = max(worst, bound - oracle)
    for k in range(21):
        # the last attack, at n = 3, goes through the greedy + 2-opt search
        atk = _random_table_attack(rng, int(rng.integers(1, 3)) if k < 20 else 3)
        oracle = keyrate.exact_entropy_oracle(atk)
        w = atk.tables.weights
        _, bound = keyrate.pairing_maximize(w, atk.gram)
        worst = max(worst, bound - oracle)
    yield "bound-below-oracle", worst <= 1e-9, f"max (bound - oracle) {worst:.2e}"

    sat = keyrate.exact_entropy_oracle(identity_attack(2))
    dev = abs(sat - 1.0)
    yield "noiseless-saturation", dev <= 1e-10, f"|oracle-1| {dev:.2e}"

    grid = np.linspace(0.0, 1.0, 9)
    params = DepolarizingParams(grid[:, None, None], grid[None, :, None],
                                np.array([2, 5, 10]))
    lit = keyrate.depolarizing_entropy_lower(params, "paper_literal")
    thm = keyrate.depolarizing_entropy_lower(params, "theorem_exact")
    dev = float(np.max(np.abs(thm - 2.0 * lit)))
    yield "mode-factor-two", dev == 0.0, f"max |thm - 2*lit| {dev:.2e}"

    params = DepolarizingParams(0.15, 0.1, 2)
    atk = depolarizing_attack(params)
    w = atk.tables.weights
    _, best = keyrate.pairing_maximize(w, atk.gram)
    ident = keyrate.theorem1_entropy_bound(
        keyrate.terms_from_plan(w, atk.gram, keyrate.identity_plan(4)))
    yield "pairing-dominance", best >= ident - 1e-12, \
        f"best {best:.6f} vs identity {ident:.6f}"

    dev = 0.0
    for atk in (identity_attack(2), depolarizing_attack(DepolarizingParams(0.3, 0.4, 2))):
        for theta in (0, 1):
            stats = protocol.round_statistics(atk, theta)
            dev = max(dev, float(np.max(np.abs(stats.pa - 0.5))))
    yield "sender-marginal-half", dev <= 1e-12, f"max |p_A - 1/2| {dev:.2e}"

    s1 = protocol.expand_theta_schedule(b"shared-key", 512, 40)
    s2 = protocol.expand_theta_schedule(b"shared-key", 512, 40)
    ok = s1 == s2 and len(set(s1.ctrl_indices)) == 40
    yield "schedule-determinism", ok, f"{s1.num_ctrl} CTRL indices"

    if attack_file:
        try:
            atk = load_attack_file(attack_file)
            oracle = keyrate.exact_entropy_oracle(atk)
            w = atk.tables.weights
            _, bound = keyrate.pairing_maximize(w, atk.gram)
            ok = bound <= oracle + 1e-9
            yield "attack-file-bound", ok, f"bound {bound:.6f} oracle {oracle:.6f}"
        except (qmath.ValidationError, qmath.DomainError) as exc:
            yield "attack-file-validation", False, str(exc)


def cmd_verify(args) -> int:
    failures = 0
    for name, ok, detail in _verify_checks(args.attack_file):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{'OK' if failures == 0 else 'FAILED'} "
          f"({failures} failing check{'s' if failures != 1 else ''})")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_range(text: str, step: float, flag: str = "range") -> list[float]:
    """The grid lo, lo + step, ... <= hi of a ``value`` or ``lo:hi`` flag."""
    try:
        lo, hi = (float(s) for s in text.split(":", 1)) if ":" in text \
            else (float(text),) * 2
    except ValueError:
        raise qmath.ValidationError(f"{flag} {text!r} is not a number or a lo:hi "
                                    "range") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise qmath.DomainError(f"{flag} {text!r} with step {step} is not finite")
    if lo > hi:
        raise qmath.DomainError(f"{flag} range {text!r} has lo > hi")
    if step <= 0:
        raise qmath.DomainError(f"step {step} must be positive")
    if (hi - lo) / step >= GRID_CAP:
        raise qmath.CapacityError(f"{flag} {text!r} with step {step} has over "
                                  f"GRID_CAP = {GRID_CAP} points")
    out = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12:
            break
        out.append(round(v, 12))
        k += 1
    return out


SWEEP_HEADER = "n,q,qtilde,mode,p_ghz,q_bob,s_lower,leakage,r_min"


@dataclass(frozen=True)
class SweepSpec:
    """A resolved sweep grid: receiver counts, strength grids, modes."""

    ns: tuple[int, ...]
    qs: tuple[float, ...]
    qtildes: tuple[float, ...]
    modes: tuple[str, ...]
    out: str | None = None

    def __post_init__(self):
        if any(n < 1 for n in self.ns):
            raise qmath.DomainError("receiver counts must be >= 1")
        for grid in (self.qs, self.qtildes):
            if any(not 0.0 <= v <= 1.0 for v in grid):
                raise qmath.DomainError("strength grids must lie in [0, 1]")
        for mode in self.modes:
            if mode not in MODES:
                raise qmath.DomainError(f"unknown mode {mode!r}")
        rows = len(self.ns) * len(self.qs) * len(self.qtildes) * len(self.modes)
        if rows > GRID_CAP:
            raise qmath.CapacityError(f"the sweep has {rows} rows, over "
                                      f"GRID_CAP = {GRID_CAP}")


def _sweep_rows(spec: SweepSpec):
    """Rows in (n, q, qtilde, mode) order.

    Each n's (q, qtilde) grid is one array call per mode; the values are
    formatted one q row at a time, so only one row of strings is held.
    """
    q, qt = np.meshgrid(spec.qs, spec.qtildes, indexing="ij")
    qt_s = _fmt_all(spec.qtildes)
    bob = keyrate.qbob(q)
    for n in spec.ns:
        params = DepolarizingParams(q, qt, n)
        pg = p_ghz_analytic(params)
        reps = [(mode, keyrate.depolarizing_keyrate(params, mode)) for mode in spec.modes]
        for i, q_s in enumerate(_fmt_all(spec.qs)):
            pg_s, bob_s = _fmt_all(pg[i]), _fmt_all(bob[i])
            cols = [(mode, _fmt_all(r.s_lower[i]), _fmt_all(r.leakage[i]),
                     _fmt_all(r.r_min[i])) for mode, r in reps]
            for j, qt_j in enumerate(qt_s):
                for mode, s, leak, r in cols:
                    yield (str(n), q_s, qt_j, mode, pg_s[j], bob_s[j], s[j], leak[j], r[j])


def _write_csv(path, header: str, rows) -> None:
    """Stream the header and rows to ``path`` (standard output when None)."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(r) + "\n" for r in rows)


def cmd_sweep(args) -> int:
    try:
        ns = tuple(int(s) for s in args.n.split(","))
    except ValueError:
        raise qmath.ValidationError(f"--n {args.n!r} is not a comma-separated "
                                    "list of integers") from None
    spec = SweepSpec(
        ns=ns,
        qs=tuple(_parse_range(args.q, args.q_step, "--q")),
        qtildes=tuple(_parse_range(args.qtilde, args.q_step, "--qtilde")),
        modes=MODES if args.mode == "both" else (args.mode,),
        out=args.out,
    )
    _write_csv(spec.out, SWEEP_HEADER, _sweep_rows(spec))
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _rates(n: int, q, qt, mode: str) -> np.ndarray:
    """r_min over arrays of Q and Q~, broadcast against each other."""
    return keyrate.depolarizing_keyrate(DepolarizingParams(q, qt, n), mode).r_min


def find_rate_crossing(fn, lo: float = 0.0, hi: float = 1.0,
                       step: float = FIGURE_STEP,
                       tol: float = BISECT_TOL) -> float | None:
    """First positive-to-strictly-negative crossing of fn, by bisection.

    ``fn`` maps an array of x to values of its shape (a constant is
    broadcast): the grid is scanned in one call, and each bisection step
    is a 1-element call.  Touching zero at the range boundary does not
    count as a crossing.
    """
    xs = np.array(_parse_range(f"{lo}:{hi}", step))
    fs = np.broadcast_to(fn(xs), xs.shape)
    neg = np.flatnonzero(fs < 0.0)
    if not neg.size:
        return None
    pos = np.flatnonzero(fs[:neg[0]] > 0.0)
    if not pos.size:
        return None
    a, b = float(xs[pos[-1]]), float(xs[neg[0]])
    while b - a > tol:
        mid = 0.5 * (a + b)
        if np.broadcast_to(fn(np.array([mid])), (1,))[0] > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _rate_rows(n: int, q: np.ndarray, qt: np.ndarray):
    """fig CSV rows over a grid of (q, qtilde) points, each with both modes."""
    rates = [_fmt_all(_rates(n, q, qt, mode)) for mode in MODES]
    q_s, qt_s = _fmt_all(q), _fmt_all(qt)
    for i in range(len(q_s)):
        for mode, r in zip(MODES, rates):
            yield str(n), q_s[i], qt_s[i], mode, r[i]


def cmd_figures(args) -> int:
    outdir = Path(args.out or "figures")
    outdir.mkdir(parents=True, exist_ok=True)
    grid01 = np.array(_parse_range("0:1", FIGURE_STEP))
    grid_half = np.array(_parse_range("0:0.5", FIGURE_STEP))

    q, qt = np.meshgrid(grid_half, grid_half, indexing="ij")
    _write_csv(outdir / "fig2.csv", "n,q,qtilde,mode,r_min", _rate_rows(10, q, qt))

    slices = {  # figure: (grid, x -> (q, qtilde))
        "fig3": (grid_half, lambda x: (x, x)),
        "fig4a": (grid01, lambda x: (0.0, x)),
        "fig4b": (grid_half, lambda x: (x, 0.0)),
    }
    for fig, (grid, point) in slices.items():
        q, qt = (np.broadcast_to(v, grid.shape) for v in point(grid))
        rows = (row for n in FIGURE_NS for row in _rate_rows(n, q, qt))
        _write_csv(outdir / f"{fig}.csv", "n,q,qtilde,mode,r_min", rows)

    rows = []
    for fig, (_, point) in slices.items():
        for n in FIGURE_NS:
            for mode in MODES:
                crossing = find_rate_crossing(lambda x: _rates(n, *point(x), mode))
                rows.append((fig, str(n), mode,
                             "" if crossing is None else _fmt(crossing)))
    _write_csv(outdir / "thresholds.csv", "figure,n,mode,crossing", rows)
    print(f"wrote fig2/fig3/fig4a/fig4b/thresholds CSV files to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _depolarizing_fit(n: int, p_ghz: float, disagreement: float
                      ) -> tuple[float, float]:
    """Fit (Q, Q~) assuming depolarizing noise, from observable estimates."""
    q_hat = min(max(2.0 * disagreement, 0.0), 1.0)
    q_ghz = (1.0 - p_ghz) / (1.0 - 0.5 ** (n + 1))
    q_ghz = min(max(q_ghz, 0.0), 1.0)
    if q_hat >= 1.0:
        return 1.0, 0.0
    qt_hat = (q_ghz - q_hat) / (1.0 - q_hat)
    return q_hat, min(max(qt_hat, 0.0), 1.0)


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    overrides = {k: getattr(args, k) for k in _CONFIG_CASTS
                 if getattr(args, k, None) is not None}
    cfg = replace(cfg, **overrides)

    attack = _attack_from_config(cfg)
    params = protocol.ProtocolParams(n=cfg.n)
    ctrl = cfg.ctrl_count if cfg.ctrl_count is not None \
        else protocol.default_ctrl_count(cfg.rounds)
    schedule = protocol.expand_theta_schedule(cfg.seed, cfg.rounds, ctrl)
    record = protocol.run_session(params, attack, schedule, cfg.seed,
                                  cfg.cc_fraction)
    t = record.tallies

    print(f"session: n={cfg.n} rounds={cfg.rounds} ctrl={ctrl} seed={cfg.seed} "
          f"attack={attack.label}")
    print(f"raw key length: {record.raw_key_alice.size}")

    pg = rates = None
    try:
        pg = estimation.estimate_p_ghz(t, confidence=0.99)
        print(f"p_ghz estimate: {_fmt(pg.value)} +/- {_fmt(pg.radius)} @99% "
              f"({t.ghz_pass}/{t.ghz_total})")
        norms = estimation.estimate_branch_norms(t)
        for a in range(2):
            print(f"branch norms q[{a},c]: "
                  + " ".join(_fmt(v) for v in norms[a]))
        d = attack.d
        r_z = estimation.hoeffding_radius(int(t.z_ctrl_counts.sum()), 0.99)
        re_radius = 2.0 * pg.radius + 2.0 * r_z
        re = estimation.estimate_re_overlap(pg.value, norms[0, 0],
                                            norms[1, d - 1], slack=re_radius)
        print(f"re-overlap estimate: {_fmt(re)} +/- {_fmt(re_radius)} @99%")
    except estimation.NoDataError as exc:
        print(f"reflection-round estimates unavailable: {exc}")
    try:
        cond = estimation.estimate_channel_conditionals(t)
        for a in range(2):
            print(f"p(b|{a}) estimates: " + " ".join(_fmt(v) for v in cond[a]))
        rates = estimation.bob_disagreement_rates(t)
        print("per-receiver disagreement: " + " ".join(_fmt(v) for v in rates))
    except estimation.NoDataError as exc:
        print(f"disclosed-round estimates unavailable: {exc}")

    if pg is not None and rates is not None:
        q_hat, qt_hat = _depolarizing_fit(cfg.n, pg.value, float(rates.mean()))
        print(f"depolarizing fit: q={_fmt(q_hat)} qtilde={_fmt(qt_hat)}")
        for mode in MODES:
            rep = keyrate.depolarizing_keyrate(
                DepolarizingParams(q_hat, qt_hat, cfg.n), mode)
            print(f"key rate ({mode}): s_lower={_fmt(rep.s_lower)} "
                  f"leakage={_fmt(rep.leakage)} r_min={_fmt(rep.r_min)}")

    out = cfg.out or "tallies.txt"
    Path(out).write_text(estimation.tally_to_text(t), encoding="utf-8")
    print(f"tallies written to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subcommand parsers too; main reports it in one line
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqcka",
        description="GHZ-based semi-quantum conference key agreement toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant verification suite")
    p.add_argument("--attack-file", default=None,
                   help="also validate and check a custom attack table file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="key-rate sweep over (n, Q, Q~) as CSV")
    p.add_argument("--n", default="3", help="comma-separated receiver counts")
    p.add_argument("--q", default="0:0.5", help="forward strength (value or lo:hi)")
    p.add_argument("--qtilde", default="0:0.5",
                   help="backward strength (value or lo:hi)")
    p.add_argument("--q-step", type=float, default=0.05, dest="q_step",
                   help="grid step for both ranges")
    p.add_argument("--mode", default="both", choices=("both",) + MODES)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("figures", help="emit figure-data CSV files")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("simulate", help="run a sampled session and estimate")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--qtilde", type=float, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ctrl-count", type=int, default=None, dest="ctrl_count")
    p.add_argument("--cc-fraction", type=float, default=None, dest="cc_fraction")
    p.add_argument("--attack-file", default=None, dest="attack_file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Run one command; bad input ends in one ``sqcka: error:`` line, exit 2."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (argparse.ArgumentError, qmath.ValidationError, qmath.DomainError,
            qmath.CapacityError, OSError) as exc:
        print(f"sqcka: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
