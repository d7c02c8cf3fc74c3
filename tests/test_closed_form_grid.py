"""The depolarizing closed form over whole (Q, Q~) grids.

The array calls must reproduce, point for point, the scalar chain they
replaced (``eve_catalogue`` -> ``depolarizing_entropy_lower`` ->
``keyrate_lower``), which is kept below verbatim as the reference: to
1e-15, and as identical 9-significant-digit strings, the form every CSV
prints.
"""

import math
import warnings

import numpy as np
import pytest

from sqcka import cli
from sqcka.attacks import DepolarizingParams, eve_catalogue, p_ghz_analytic
from sqcka.cli import find_rate_crossing, main
from sqcka.keyrate import (
    MODES,
    depolarizing_entropy_lower,
    depolarizing_keyrate,
    keyrate_lower,
    qbob,
)
from sqcka.qmath import DomainError, binary_entropy

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


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


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

    def test_figure_rows_match_reference(self, tmp_path, capsys):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        grid = cli._parse_range("0:1", cli.FIGURE_STEP)
        lines = (tmp_path / "fig4a.csv").read_text().splitlines()
        want = ["n,q,qtilde,mode,r_min"]
        want += [",".join([str(n), "0", _fmt(x), mode, _fmt(ref_keyrate(0.0, x, n, mode)[2])])
                 for n in cli.FIGURE_NS for x in grid for mode in MODES]
        assert lines == want
        half = cli._parse_range("0:0.5", cli.FIGURE_STEP)
        lines = (tmp_path / "fig2.csv").read_text().splitlines()
        want = ["n,q,qtilde,mode,r_min"]
        want += [",".join(["10", _fmt(q), _fmt(qt), mode,
                           _fmt(ref_keyrate(q, qt, 10, mode)[2])])
                 for q in half for qt in half for mode in MODES]
        assert lines == want


# ---------------------------------------------------------------------------
# scalars, range checks, warnings
# ---------------------------------------------------------------------------


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
        shapes = []

        def fn(x):
            shapes.append(np.shape(x))
            return 0.3 - x

        got = find_rate_crossing(fn)
        assert got == pytest.approx(0.3, abs=1e-4)
        assert shapes[0] == (201,)
        assert len(shapes) > 1 and set(shapes[1:]) == {(1,)}

    def test_rate_surface_crossing_brackets_sign_change(self):
        def rate(x):
            return depolarizing_keyrate(DepolarizingParams(x, x, 3), "theorem_exact").r_min

        x = find_rate_crossing(rate)
        tol = cli.BISECT_TOL
        assert ref_keyrate(x - tol, x - tol, 3, "theorem_exact")[2] > 0.0
        assert ref_keyrate(x + tol, x + tol, 3, "theorem_exact")[2] <= 0.0
