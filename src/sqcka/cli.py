"""Batch front-end: verification suite, sweeps, figure data, simulation.

Commands::

    sqcka verify   [--attack-file F]
    sqcka sweep    --n 3,5 --q 0:0.5 --qtilde 0.2 --q-step 0.05 [--out F]
    sqcka figures  [--out DIR]
    sqcka simulate --n 2 --q 0.1 --qtilde 0.2 --rounds 100000 --seed 7 ...

Outputs are deterministic: identical arguments and seed give byte-identical
CSV files and reports.  Numbers are printed with 9 significant digits.
``sweep`` and ``figures`` evaluate the closed-form rates over whole
(Q, Q~) grids, one array call per (n, mode) or, for a figure slice, per
mode; the threshold crossings of every (figure, n) row of a mode are
bisected together, one call per step.  Each distinct axis value is
formatted once, and each line is built from those strings.

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
from dataclasses import dataclass, field, make_dataclass, replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import estimation, keyrate, protocol, qmath
from .attacks import (
    CollectiveAttack,
    DepolarizingParams,
    depolarizing_attack,
    eve_catalogue,
    gram_purification,
    identity_attack,
    load_attack_file,
    p_ghz_analytic,
    random_table_attack,
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


#: Simulation settings, key: (type, default).  Each is a ``RunConfig`` field,
#: a config-file key and a ``simulate`` flag (``_`` written ``-``).
SETTINGS = {
    "n": (int, 2), "q": (float, 0.0), "qtilde": (float, 0.0), "rounds": (int, 1000),
    "seed": (int, 1), "ctrl_count": (int, None), "cc_fraction": (float, 0.1),
    "attack_file": (str, None), "out": (str, None),
}

RunConfig = make_dataclass(
    "RunConfig", [(k, t, field(default=v)) for k, (t, v) in SETTINGS.items()],
    namespace={"__module__": __name__, "__doc__": "Simulation settings, one field per key."})


def load_run_config(path) -> RunConfig:
    """Parse a flat key=value config file; a key may be given once."""
    cfg = RunConfig()
    first: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise qmath.ValidationError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in SETTINGS:
                raise qmath.ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first:
                raise qmath.ValidationError(f"{path}:{lineno}: duplicate key {key!r}, "
                                            f"first given on line {first[key]}")
            first[key] = lineno
            try:
                setattr(cfg, key, SETTINGS[key][0](val))
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


def _dense_entropy(attack: CollectiveAttack) -> float:
    """S(A|E) of rho_AE = sum_a |a><a| (x) sum_bc e_abc e_abc^T / 2, dense,
    with e_abc = sqrt(w_abc) times branch abc's column of the Gram's
    purification."""
    m = gram_purification(attack.gram)
    k = len(m)
    e = (m * np.sqrt(attack.tables.weights.reshape(-1))).reshape(k, 2, -1)
    rho = np.einsum("ab,kal,mal->akbm", np.eye(2), e, e) / 2.0
    layout = qmath.RegisterLayout([("A", 2), ("E", k)])
    return qmath.conditional_entropy(rho.reshape(2 * k, 2 * k), layout, ("A",), ("E",))


def _verify_checks(attack_file: str | None):
    """Yield (name, passed, detail) for every invariant check."""
    rng = np.random.default_rng(20240901)

    # --- dense entropy reference ------------------------------------------
    layout = qmath.RegisterLayout([("A", 2), ("B", 2), ("C", 3)])
    amp = rng.normal(size=12) + 1j * rng.normal(size=12)
    amp /= np.linalg.norm(amp)
    rho = np.outer(amp, amp.conj())
    one = qmath.partial_trace(qmath.partial_trace(rho, layout, ("A", "B")),
                              layout.restrict(("A", "B")), ("A",))
    two = qmath.partial_trace(rho, layout, ("A",))
    dev = float(np.max(np.abs(one - two)))
    yield "partial-trace-composition", dev <= 1e-12, f"max entry dev {dev:.2e}"

    probs = rng.dirichlet(np.ones(6))
    s_direct = -(probs * np.log2(probs)).sum()
    dev = abs(qmath.entropy_of_spectrum(np.linalg.eigvalsh(np.diag(probs))) - s_direct)
    yield "entropy-spectrum-agreement", dev <= 1e-10, f"dev {dev:.2e}"

    joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
    lay = qmath.RegisterLayout([("A", 3), ("E", 4)])
    pe = joint.sum(axis=0)
    shannon = -(joint[joint > 0] * np.log2(joint[joint > 0])).sum() \
        + (pe[pe > 0] * np.log2(pe[pe > 0])).sum()
    dev = abs(qmath.conditional_entropy(np.diag(joint.ravel()), lay, ("A",), ("E",))
              - shannon)
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
        atk = random_table_attack(rng, int(rng.integers(1, 3)) if k < 20 else 3)
        oracle = keyrate.exact_entropy_oracle(atk)
        w = atk.tables.weights
        _, bound = keyrate.pairing_maximize(w, atk.gram)
        worst = max(worst, bound - oracle)
    yield "bound-below-oracle", worst <= 1e-9, f"max (bound - oracle) {worst:.2e}"

    dev = 0.0
    for n in (1, 2):
        for atk in (identity_attack(n), depolarizing_attack(DepolarizingParams(0.1, 0.2, n)),
                    random_table_attack(rng, n)):
            dev = max(dev, abs(keyrate.exact_entropy_oracle(atk) - _dense_entropy(atk)))
    yield "oracle-dense-agreement", dev <= 1e-10, f"max |oracle - dense| {dev:.2e}"

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


def _range_size(text: str, step: float, flag: str = "range") -> tuple[float, int]:
    """(lo, point count) of the grid of a ``value`` or ``lo:hi`` flag.

    The count is that of the points lo + k*step <= hi + 1e-12, found by the
    same float steps as the grid itself, without building it; a count over
    ``GRID_CAP`` raises ``CapacityError``.
    """
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
    k = int(min((hi - lo) / step, GRID_CAP))  # the last point's k, up to rounding
    while k < GRID_CAP and lo + (k + 1) * step <= hi + 1e-12:
        k += 1
    while lo + k * step > hi + 1e-12:
        k -= 1
    if k >= GRID_CAP:
        raise qmath.CapacityError(f"{flag} {text!r} with step {step} has over "
                                  f"GRID_CAP = {GRID_CAP} points")
    return lo, k + 1


def _parse_range(text: str, step: float, flag: str = "range") -> list[float]:
    """The grid lo, lo + step, ... <= hi of a ``value`` or ``lo:hi`` flag."""
    lo, size = _range_size(text, step, flag)
    return [round(lo + k * step, 12) for k in range(size)]


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


def _sweep_rows(spec: SweepSpec):
    """CSV text in (n, q, qtilde, mode) order, one chunk per (n, q) row.

    Each n's (q, qtilde) grid is one array call per mode.  Each axis value
    is formatted once, and q_bob and the leakage, which depend on q alone,
    once per q row; the values are formatted one q row at a time.
    """
    q, qt = np.meshgrid(spec.qs, spec.qtildes, indexing="ij")
    q_s, qt_s = _fmt_all(spec.qs), _fmt_all(spec.qtildes)
    bob_s = _fmt_all(keyrate.qbob(q[:, 0]))
    for n in spec.ns:
        params = DepolarizingParams(q, qt, n)
        pg = p_ghz_analytic(params)
        reps = [keyrate.depolarizing_keyrate(params, mode) for mode in spec.modes]
        leak_s = _fmt_all(reps[0].leakage[:, 0])
        for i, q_i in enumerate(q_s):
            head, bob = f"{n},{q_i},", f",{bob_s[i]},"
            yield _interleave(
                [f"{head}{qt_j},{mode},{pg_j}{bob}{s},{leak_s[i]},{r}\n"
                 for qt_j, pg_j, s, r in zip(qt_s, _fmt_all(pg[i]), _fmt_all(rep.s_lower[i]),
                                             _fmt_all(rep.r_min[i]))]
                for mode, rep in zip(spec.modes, reps))


def _interleave(columns) -> str:
    """The lines of equal-length columns, row by row: a0 b0 a1 b1 ..."""
    return "".join(chain.from_iterable(zip(*columns)))


def _write_csv(path, header: str, chunks) -> None:
    """Stream the header and chunks of whole lines to ``path`` (stdout when None)."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as fh:
        fh.write(header + "\n")
        fh.writelines(chunks)


def cmd_sweep(args) -> int:
    try:
        ns = tuple(int(s) for s in args.n.split(","))
    except ValueError:
        raise qmath.ValidationError(f"--n {args.n!r} is not a comma-separated "
                                    "list of integers") from None
    modes = MODES if args.mode == "both" else (args.mode,)
    ranges = [(args.q, "--q"), (args.qtilde, "--qtilde")]
    # the row cap is checked before either grid is built
    rows = len(ns) * len(modes) * math.prod(_range_size(text, args.q_step, flag)[1]
                                            for text, flag in ranges)
    if rows > GRID_CAP:
        raise qmath.CapacityError(f"the sweep has {rows} rows, over GRID_CAP = {GRID_CAP}")
    qs, qtildes = (tuple(_parse_range(text, args.q_step, flag)) for text, flag in ranges)
    spec = SweepSpec(ns=ns, qs=qs, qtildes=qtildes, modes=modes, out=args.out)
    _write_csv(spec.out, SWEEP_HEADER, _sweep_rows(spec))
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _rates(n, q, qt, mode: str) -> np.ndarray:
    """r_min over arrays of n, Q and Q~, broadcast against each other."""
    return keyrate.depolarizing_keyrate(DepolarizingParams(q, qt, n), mode).r_min


def find_rate_crossing(fn):
    """First positive-to-strictly-negative crossing on [0, 1] of each row of fn.

    ``fn`` maps an array of x to values of shape ``S + x.shape[-1:]`` (a
    constant is broadcast), one row per element of the stack shape S.  The
    grid of step ``FIGURE_STEP`` is scanned in one call for every row;
    then each bisection step is one call, with x of shape ``S + (1,)``, and
    each row halves its own bracket while it is wider than ``BISECT_TOL``,
    by the same float steps as when bisected alone.  Touching zero at the
    range boundary does not count as a crossing.  Returns the crossing, or
    None, for S = (), and otherwise a nested list of them of shape S.
    """
    xs = np.array(_parse_range("0:1", FIGURE_STEP))
    fs = fn(xs)
    fs = np.broadcast_to(fs, np.broadcast_shapes(np.shape(fs), xs.shape))
    neg = fs < 0.0
    first_neg = neg.argmax(axis=-1)
    pos = (fs > 0.0) & (np.arange(xs.size) < first_neg[..., None])
    last_pos = xs.size - 1 - pos[..., ::-1].argmax(axis=-1)
    found = neg.any(axis=-1) & pos.any(axis=-1)
    a = np.where(found, xs[last_pos], 0.0)
    b = np.where(found, xs[first_neg], 0.0)
    while (active := b - a > BISECT_TOL).any():
        mid = 0.5 * (a + b)
        up = np.broadcast_to(fn(mid[..., None]), mid.shape + (1,))[..., 0] > 0.0
        a = np.where(active & up, mid, a)
        b = np.where(active & ~up, mid, b)
    return np.where(found, 0.5 * (a + b), None).tolist()


def _rate_rows(n, q_s, qt_s, rates) -> str:
    """Figure CSV lines at the points (q_s[k], qt_s[k]), both modes at each.

    The coordinates come as strings, and ``rates`` holds each mode's r_min
    at the points, in ``MODES`` order.
    """
    return _interleave(
        [f"{n},{q},{qt},{mode},{r}\n" for q, qt, r in zip(q_s, qt_s, _fmt_all(rate))]
        for mode, rate in zip(MODES, rates))


def cmd_figures(args) -> int:
    outdir = Path(args.out or "figures")
    outdir.mkdir(parents=True, exist_ok=True)
    grid01 = np.array(_parse_range("0:1", FIGURE_STEP))
    grid_half = np.array(_parse_range("0:0.5", FIGURE_STEP))

    # fig2: one q row of the n = 10 surface at a time, each axis formatted once
    half_s = _fmt_all(grid_half)
    rates = [_rates(10, grid_half[:, None], grid_half, mode) for mode in MODES]
    rows = (_rate_rows(10, repeat(q_s), half_s, [r[i] for r in rates])
            for i, q_s in enumerate(half_s))
    _write_csv(outdir / "fig2.csv", "n,q,qtilde,mode,r_min", rows)

    # the slices: (q, qtilde) = (x * q_on, x * qt_on), exact with factors 0 and 1
    slices = {"fig3": (grid_half, 1.0, 1.0), "fig4a": (grid01, 0.0, 1.0),
              "fig4b": (grid_half, 1.0, 0.0)}
    ns = np.array(FIGURE_NS)[:, None]
    for fig, (grid, q_on, qt_on) in slices.items():
        x_s, zero_s = _fmt_all(grid), [_fmt(0.0)] * grid.size
        q_s, qt_s = (x_s if on else zero_s for on in (q_on, qt_on))
        rates = [_rates(ns, grid * q_on, grid * qt_on, mode) for mode in MODES]
        rows = (_rate_rows(n, q_s, qt_s, [r[k] for r in rates])
                for k, n in enumerate(FIGURE_NS))
        _write_csv(outdir / f"{fig}.csv", "n,q,qtilde,mode,r_min", rows)

    # thresholds: every (figure, n) row of one mode bisected in lockstep
    keys = [(fig, n) for fig in slices for n in FIGURE_NS]
    row_ns = np.array([n for _, n in keys])[:, None]
    on = np.array([slices[fig][1:] for fig, _ in keys])
    crossings = {mode: find_rate_crossing(
        lambda x: _rates(row_ns, x * on[:, :1], x * on[:, 1:], mode)) for mode in MODES}
    rows = (f"{fig},{n},{mode},{'' if xs[k] is None else _fmt(xs[k])}\n"
            for k, (fig, n) in enumerate(keys) for mode, xs in crossings.items())
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
    overrides = {k: getattr(args, k) for k in SETTINGS if getattr(args, k) is not None}
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
    for key, (typ, _) in SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=typ, default=None, dest=key)
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
