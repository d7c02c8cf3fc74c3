"""The depolarizing closed form over whole (Q, Q~) grids.

The array calls must reproduce, point for point, the scalar chain they
replaced (``eve_catalogue`` -> ``depolarizing_entropy_lower`` ->
``keyrate_lower``), which is kept below verbatim as the reference: to
1e-15, and as identical 9-significant-digit strings, the form every CSV
prints.  Likewise the lockstep crossing finder must give, row for row,
what the one-row bisection it replaced gives, also kept below verbatim.
The closed form as the term of its one pair must equal, value for value,
the array form with its own eigenvalue fraction, also kept verbatim.
"""

import math
import warnings
from itertools import product

import numpy as np
import pytest

from sqcka import cli, keyrate
from sqcka.attacks import DepolarizingParams, eve_catalogue, p_ghz_analytic
from sqcka.cli import find_rate_crossing, main
from sqcka.keyrate import (
    MODES,
    depolarizing_entropy_lower,
    depolarizing_keyrate,
    keyrate_lower,
    qbob,
)
from sqcka.qmath import DomainError, binary_entropy, float_or_array

NS = (1, 2, 3, 10, 2000)
GRID = np.concatenate([np.linspace(0.0, 1.0, 21), [1.0 / 3.0, 1e-9, 1.0 - 1e-9]])


# ---------------------------------------------------------------------------
# the scalar chain before the array form, verbatim
# ---------------------------------------------------------------------------

_LOG2 = math.log(2.0)


def ref_binary_entropy(x: float) -> float:
    """Shannon entropy (bits) of the distribution {x, 1-x}."""
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise DomainError(f"binary_entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / _LOG2)


def ref_eve_catalogue(q: float, qt: float, n: int) -> dict[str, float]:
    # x / 2^k as ldexp(x, -k): the same value, and no overflow at large n
    mixed = math.ldexp(q * (1 - qt) + (1 - q) * qt, -(n + 1))
    tail = math.ldexp(q * qt, -(2 * n + 1))
    return dict(
        norm_aaa=(1 - q) * (1 - qt) / 2.0 + mixed + tail,
        norm_aac=math.ldexp((1 - q) * qt, -(n + 1)) + tail,
        norm_abb=math.ldexp(q * (1 - qt), -(n + 1)) + tail,
        norm_abc=tail,
        cross_overlap=(1 - q) * (1 - qt) / 2.0,
    )


def ref_p_ghz(q: float, qt: float, n: int) -> float:
    q_ghz = q + qt - q * qt
    return 1.0 - q_ghz * (1.0 - math.ldexp(1.0, -(n + 1)))


def ref_entropy_lower(q: float, qt: float, n: int, mode: str) -> float:
    cat = ref_eve_catalogue(q, qt, n)
    # norm_aaa >= cross_overlap, and it is 0 only by underflow at huge n
    lam = 0.5 * (1.0 + cat["cross_overlap"] / cat["norm_aaa"]) if cat["norm_aaa"] else 0.5
    literal = cat["norm_aaa"] * (1.0 - ref_binary_entropy(min(lam, 1.0)))
    return literal if mode == "paper_literal" else 2.0 * literal


def ref_keyrate(q: float, qt: float, n: int, mode: str) -> tuple[float, float, float]:
    """(s_lower, leakage, r_min), as ``keyrate_lower`` composed them."""
    s_rep = max(0.0, ref_entropy_lower(q, qt, n, mode))
    leakage = ref_binary_entropy(q / 2.0)
    return s_rep, leakage, s_rep - leakage


def own_lambda_entropy_lower(params: DepolarizingParams, mode: str) -> float | np.ndarray:
    """``depolarizing_entropy_lower`` with its own lam and h, before it was
    written as the term of the one pair of all-equal branches."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    cat = eve_catalogue(params)
    # norm_aaa >= cross_overlap, and it is 0 (a 0/0 here) only by underflow
    # at huge n
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(cat.norm_aaa > 0.0,
                       0.5 * (1.0 + np.divide(cat.cross_overlap, cat.norm_aaa)), 0.5)
    literal = cat.norm_aaa * (1.0 - binary_entropy(np.minimum(lam, 1.0)))
    return float_or_array(literal if mode == "paper_literal" else 2.0 * literal)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def reference_find_rate_crossing(fn) -> float | None:
    """First positive-to-strictly-negative crossing of fn on [0, 1], by bisection.

    ``fn`` maps an array of x to values of its shape (a constant is
    broadcast): the grid of step ``FIGURE_STEP`` is scanned in one call, and
    each bisection step, down to ``BISECT_TOL``, is a 1-element call.
    Touching zero at the range boundary does not count as a crossing.
    """
    xs = np.array(cli._parse_range("0:1", cli.FIGURE_STEP))
    fs = np.broadcast_to(fn(xs), xs.shape)
    neg = np.flatnonzero(fs < 0.0)
    if not neg.size:
        return None
    pos = np.flatnonzero(fs[:neg[0]] > 0.0)
    if not pos.size:
        return None
    a, b = float(xs[pos[-1]]), float(xs[neg[0]])
    while b - a > cli.BISECT_TOL:
        mid = 0.5 * (a + b)
        if np.broadcast_to(fn(np.array([mid])), (1,))[0] > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


#: The figure slices as the pre-change ``figures`` wrote them: x -> (q, qtilde).
SLICES = {"fig3": lambda x: (x, x), "fig4a": lambda x: (0.0, x), "fig4b": lambda x: (x, 0.0)}

#: Bisection steps from a bracket of one grid step, with one step of slack.
MAX_STEPS = math.ceil(math.log2(cli.FIGURE_STEP / cli.BISECT_TOL)) + 1


@pytest.fixture(scope="module")
def figures_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    assert main(["figures", "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# array form vs reference
# ---------------------------------------------------------------------------


def _assert_matches(got: np.ndarray, want: list[float], what: str) -> None:
    got = np.ravel(got).tolist()
    dev = max(abs(g - w) for g, w in zip(got, want))
    assert dev <= 1e-15, f"{what}: max dev {dev:.3g}"
    assert list(map(_fmt, got)) == list(map(_fmt, want)), what


class TestArrayMatchesScalarReference:
    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("mode", MODES)
    def test_rates(self, n, mode):
        q, qt = np.meshgrid(GRID, GRID, indexing="ij")
        rep = depolarizing_keyrate(DepolarizingParams(q, qt, n), mode)
        refs = [ref_keyrate(a, b, n, mode) for a, b in zip(q.ravel(), qt.ravel())]
        for k, name in enumerate(("s_lower", "leakage", "r_min")):
            assert getattr(rep, name).shape == q.shape
            _assert_matches(getattr(rep, name), [r[k] for r in refs], name)

    @pytest.mark.parametrize("n", NS)
    def test_catalogue_and_p_ghz(self, n):
        q, qt = np.meshgrid(GRID, GRID, indexing="ij")
        params = DepolarizingParams(q, qt, n)
        points = list(zip(q.ravel(), qt.ravel()))
        cat = eve_catalogue(params)
        for name in ("norm_aaa", "norm_aac", "norm_abb", "norm_abc", "cross_overlap"):
            _assert_matches(getattr(cat, name),
                            [ref_eve_catalogue(a, b, n)[name] for a, b in points], name)
        _assert_matches(p_ghz_analytic(params),
                        [ref_p_ghz(a, b, n) for a, b in points], "p_ghz")

    def test_receiver_counts_broadcast(self):
        ns = np.array(NS[:4])
        params = DepolarizingParams(GRID[:, None, None], GRID[None, :, None], ns)
        got = depolarizing_entropy_lower(params, "theorem_exact")
        assert got.shape == (GRID.size, GRID.size, ns.size)
        _assert_matches(got, [ref_entropy_lower(a, b, int(n), "theorem_exact")
                              for a in GRID for b in GRID for n in ns], "s_lower")

    def test_sweep_rows_match_reference(self, capsys):
        ns, step = (1, 10, 2000), 0.125
        assert main(["sweep", "--n", ",".join(map(str, ns)), "--q", "0:1",
                     "--qtilde", "0:1", "--q-step", str(step)]) == 0
        lines = capsys.readouterr().out.splitlines()
        grid = cli._parse_range("0:1", step)
        want = [cli.SWEEP_HEADER]
        for n in ns:
            for q in grid:
                for qt in grid:
                    for mode in MODES:
                        rate = ref_keyrate(q, qt, n, mode)
                        want.append(",".join([str(n), _fmt(q), _fmt(qt), mode,
                                              _fmt(ref_p_ghz(q, qt, n)), _fmt(q / 2.0),
                                              *map(_fmt, rate)]))
        assert lines == want

    def test_figure_rows_match_reference(self, figures_dir):
        header = ["n,q,qtilde,mode,r_min"]
        half = cli._parse_range("0:0.5", cli.FIGURE_STEP)
        lines = (figures_dir / "fig2.csv").read_text().splitlines()
        assert lines == header + [
            ",".join(["10", _fmt(q), _fmt(qt), mode, _fmt(ref_keyrate(q, qt, 10, mode)[2])])
            for q in half for qt in half for mode in MODES]
        grids = {"fig3": half, "fig4a": cli._parse_range("0:1", cli.FIGURE_STEP),
                 "fig4b": half}
        for fig, point in SLICES.items():
            lines = (figures_dir / f"{fig}.csv").read_text().splitlines()
            assert lines == header + [
                ",".join([str(n), *map(_fmt, point(x)), mode,
                          _fmt(ref_keyrate(*point(x), n, mode)[2])])
                for n in cli.FIGURE_NS for x in grids[fig] for mode in MODES], fig

    def test_thresholds_match_reference(self, figures_dir):
        lines = (figures_dir / "thresholds.csv").read_text().splitlines()
        want = ["figure,n,mode,crossing"]
        for (fig, point), n, mode in product(SLICES.items(), cli.FIGURE_NS, MODES):
            x = reference_find_rate_crossing(lambda v: depolarizing_keyrate(
                DepolarizingParams(*point(v), n), mode).r_min)
            want.append(f"{fig},{n},{mode},{'' if x is None else _fmt(x)}")
        assert lines == want
        crossings = [line.split(",")[3] for line in lines[1:]]
        assert "" in crossings and len(set(crossings)) > 10


# ---------------------------------------------------------------------------
# scalars, range checks, warnings
# ---------------------------------------------------------------------------


class TestPairTermMatchesOwnLambda:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 10, 1030, 1060, 2000])
    def test_equal_elementwise(self, n, mode):
        # edges at 0 and 1, where a weight or the overlap is 0; from
        # n = 1030 on the tails are subnormal, and norm_aaa may underflow to
        # 0, where the pair term is -0.0 and the reference +0.0
        grid = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-300, 1.0 - 1e-16]])
        params = DepolarizingParams(grid[:, None], grid[None, :], n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = depolarizing_entropy_lower(params, mode)
        want = own_lambda_entropy_lower(params, mode)
        assert got.shape == want.shape == (grid.size, grid.size)
        assert (got == want).all()
        for q, qt in ((0.0, 0.0), (0.1, 0.2), (1.0, 1.0), (0.3, 1.0)):
            scalar = DepolarizingParams(q, qt, n)
            assert depolarizing_entropy_lower(scalar, mode) == \
                own_lambda_entropy_lower(scalar, mode)


class TestScalarsAndChecks:
    def test_scalar_call_returns_float(self):
        params = DepolarizingParams(0.1, 0.2, 3)
        rep = depolarizing_keyrate(params, "theorem_exact")
        cat = eve_catalogue(params)
        values = [rep.s_lower, rep.leakage, rep.r_min, p_ghz_analytic(params),
                  depolarizing_entropy_lower(params, "paper_literal"),
                  binary_entropy(0.3), qbob(0.4), *cat.norms.values(),
                  cat.cross_overlap, keyrate_lower(-0.5, 0.2).s_lower]
        assert all(type(v) is float for v in values), [type(v) for v in values]

    @pytest.mark.parametrize("field", ["q", "qtilde"])
    def test_one_out_of_range_element_raises(self, field):
        bad = GRID.copy()
        bad[7] = 1.0 + 1e-9
        kwargs = {"q": 0.1, "qtilde": 0.2, field: bad}
        with pytest.raises(DomainError, match=f"^{field}=1.000000001 outside"):
            DepolarizingParams(n=3, **kwargs)
        bad[7] = np.nan
        with pytest.raises(DomainError, match=f"^{field}=nan outside"):
            DepolarizingParams(n=3, **kwargs)

    def test_elementwise_helpers_check_every_element(self):
        with pytest.raises(DomainError, match="binary_entropy argument 1.1 outside"):
            binary_entropy(np.array([0.0, 0.5, 1.1]))
        with pytest.raises(DomainError, match="q=-0.25 outside"):
            qbob(np.array([0.5, -0.25]))
        with pytest.raises(DomainError, match="receiving party"):
            DepolarizingParams(0.1, 0.1, np.array([3, 0]))
        # the 1e-12 slack of binary_entropy holds elementwise too
        np.testing.assert_array_equal(binary_entropy(np.array([-1e-13, 1.0 + 1e-13])),
                                      [0.0, 0.0])

    def test_no_runtime_warning(self):
        # Q = Q~ = 1 at huge n: norm_aaa underflows to 0, a 0/0 in lam
        grid = np.array([0.0, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (*NS, 10 ** 20):
                params = DepolarizingParams(grid[:, None], grid[None, :], n)
                for mode in MODES:
                    rep = depolarizing_keyrate(params, mode)
                    assert np.isfinite(rep.r_min).all()
                assert np.isfinite(p_ghz_analytic(params)).all()
            assert depolarizing_keyrate(DepolarizingParams(1.0, 1.0, 2000),
                                        "theorem_exact").s_lower == 0.0
            binary_entropy(grid)


class TestArrayCrossingFinder:
    def test_scans_in_one_call_and_bisects_in_one_element_calls(self):
        # one row: a (201,) scan, then one (1,) call per step
        shapes = []

        def fn(x):
            shapes.append(np.shape(x))
            return 0.3 - x

        got = find_rate_crossing(fn)
        assert got == pytest.approx(0.3, abs=1e-4)
        assert shapes[0] == (201,)
        assert set(shapes[1:]) == {(1,)} and len(shapes) - 1 <= MAX_STEPS

        # a (2, 2) stack: one scan for every row, then one call per step with
        # one element per row, however many rows are still bisecting
        shapes.clear()
        roots = np.array([[0.3, 0.71], [2.0, 0.123]])  # 2.0: no crossing

        def stack(x):
            shapes.append(np.shape(x))
            return roots[..., None] - x

        got = find_rate_crossing(stack)
        assert got[0] == pytest.approx([0.3, 0.71], abs=1e-4)
        assert got[1][0] is None and got[1][1] == pytest.approx(0.123, abs=1e-4)
        assert shapes[0] == (201,)
        assert set(shapes[1:]) == {(2, 2, 1)} and 1 <= len(shapes) - 1 <= MAX_STEPS

    def test_rate_surface_crossing_brackets_sign_change(self):
        def rate(x):
            return depolarizing_keyrate(DepolarizingParams(x, x, 3), "theorem_exact").r_min

        x = find_rate_crossing(rate)
        tol = cli.BISECT_TOL
        assert ref_keyrate(x - tol, x - tol, 3, "theorem_exact")[2] > 0.0
        assert ref_keyrate(x + tol, x + tol, 3, "theorem_exact")[2] <= 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_each_row_as_when_bisected_alone(self, seed):
        # random rate rows (q, qtilde) = (a x, c x) at n in 1..2000, either mode;
        # rows with a = 0 never go negative, and some rows read 0 on a window
        # around their crossing, so that they bisect a wider bracket
        rng = np.random.default_rng(seed)
        rows = 48
        n = rng.integers(1, 2001, rows)
        a = np.where(rng.random(rows) < 0.2, 0.0, rng.uniform(0.2, 1.0, rows))
        c = rng.uniform(0.0, 1.0, rows)
        thm = rng.random(rows) < 0.5
        z0 = np.full(rows, 2.0)
        z1 = np.full(rows, 2.0)

        def rate(x, n, a, c, thm, z0, z1):
            params = DepolarizingParams(x * a, x * c, n)
            r = np.where(thm, depolarizing_keyrate(params, "theorem_exact").r_min,
                         depolarizing_keyrate(params, "paper_literal").r_min)
            return np.where((x > z0) & (x < z1), 0.0, r)

        def alone(k):
            calls = []
            args = (n[k], a[k], c[k], thm[k], z0[k], z1[k])
            got = reference_find_rate_crossing(lambda x: calls.append(x) or rate(x, *args))
            return got, len(calls) - 1

        for k in range(0, rows, 3):  # a zero window around every third row's crossing
            x, _ = alone(k)
            if x is not None:
                z0[k], z1[k] = x - rng.uniform(0.01, 0.04), x + rng.uniform(0.01, 0.04)
        want, steps = zip(*map(alone, range(rows)))

        calls = []
        cols = [v[:, None] for v in (n, a, c, thm, z0, z1)]
        got = find_rate_crossing(lambda x: calls.append(x.shape) or rate(x, *cols))
        assert got == list(want)
        assert calls == [(201,)] + [(rows, 1)] * max(steps)
        found = [s for w, s in zip(want, steps) if w is not None]
        assert None in want and min(found) < max(found)


def test_figures_call_the_rates_a_bounded_number_of_times(tmp_path, monkeypatch, capsys):
    shapes = []
    real = keyrate.depolarizing_keyrate

    def counted(params, mode):
        shapes.append(np.shape(params.q))
        return real(params, mode)

    monkeypatch.setattr(keyrate, "depolarizing_keyrate", counted)
    assert main(["figures", "--out", str(tmp_path)]) == 0
    # per mode: fig2, the three slices, the thresholds scan and its steps
    assert len(shapes) <= len(MODES) * (1 + len(SLICES) + 1 + MAX_STEPS), shapes
