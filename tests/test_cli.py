"""Command-line front-end tests: exit codes, CSV schemas, determinism."""

import math

import numpy as np
import pytest

from sqcka import cli
from sqcka.attacks import dump_attack_file, random_table_attack
from sqcka.cli import _parse_range, find_rate_crossing, main
from sqcka.qmath import CapacityError, DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParseRange:
    def test_single_value(self):
        assert _parse_range("0.3", 0.1) == [0.3]

    def test_range_inclusive(self):
        assert _parse_range("0:0.2", 0.1) == [0.0, 0.1, 0.2]

    def test_reversed_range_rejected(self):
        with pytest.raises(DomainError, match="lo > hi"):
            _parse_range("0.5:0.1", 0.1)

    @pytest.mark.parametrize("text,step", [("nan", 0.1), ("0:inf", 0.1),
                                           ("0:1", float("nan"))])
    def test_non_finite_rejected(self, text, step):
        with pytest.raises(DomainError, match="not finite"):
            _parse_range(text, step)

    def test_grid_cap_checked_before_building(self):
        # 1e-10 would build 10^10 points; with 5e-324, (hi - lo) / step is inf
        for step in (1e-10, 5e-324):
            with pytest.raises(CapacityError, match="GRID_CAP"):
                _parse_range("0:1", step, "--q")
        assert len(_parse_range("0:1", 1.0 / (cli.GRID_CAP - 1))) == cli.GRID_CAP

    def test_grid_cap_is_exact(self):
        # (hi - lo) / step is just under GRID_CAP, but the 1e-12 slack admits
        # the point k = GRID_CAP: GRID_CAP + 1 points
        step = 1.0 / (cli.GRID_CAP - 1e-7)
        assert 1.0 / step < cli.GRID_CAP and step * cli.GRID_CAP <= 1.0 + 1e-12
        with pytest.raises(CapacityError, match="GRID_CAP"):
            _parse_range("0:1", step, "--q")
        assert cli._range_size("0:1", 1.0 / (cli.GRID_CAP - 1)) == (0.0, cli.GRID_CAP)

    @pytest.mark.parametrize("seed", range(3))
    def test_size_and_grid_match_the_point_by_point_loop(self, seed):
        def reference(lo, hi, step):  # the grid loop before sizes were computed
            out = []
            k = 0
            while True:
                v = lo + k * step
                if v > hi + 1e-12:
                    break
                out.append(round(v, 12))
                k += 1
            return out

        rng = np.random.default_rng(seed)
        for _ in range(300):
            lo = round(float(rng.uniform(0, 1)), int(rng.integers(1, 4)))
            m = int(rng.integers(0, 60))
            step = float(rng.choice([0.1, 0.05, 0.02, 0.01, 1 / 3, 1 / 7, 0.003,
                                     rng.uniform(1e-3, 0.3)]))
            # hi on, just past and just before a multiple of step from lo
            for hi in (lo + m * step, lo + m * step + 1e-12, lo + m * step - 1e-12,
                       round(lo + m * step, 3)):
                if hi < lo:
                    continue
                text, want = f"{lo!r}:{hi!r}", reference(lo, hi, step)
                assert cli._range_size(text, step) == (lo, len(want)), (text, step)
                assert _parse_range(text, step) == want, (text, step)


class TestVerify:
    CHECKS = ["partial-trace-composition", "entropy-spectrum-agreement",
              "classical-conditional-entropy", "dilation-analytic-agreement",
              "catalogue-normalization", "bound-below-oracle", "oracle-dense-agreement",
              "noiseless-saturation", "mode-factor-two", "pairing-dominance",
              "sender-marginal-half", "schedule-determinism"]

    def test_passes_with_status_zero(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("(0 failing checks)")

    def test_check_names_in_order(self, capsys):
        _, out = run_cli(capsys, "verify")
        lines = out.strip().splitlines()
        assert [ln.split(":")[0].split()[1] for ln in lines[:-1]] == self.CHECKS

    def test_valid_attack_file_passes(self, capsys, tmp_path):
        path = tmp_path / "random.attack"
        dump_attack_file(random_table_attack(np.random.default_rng(5), 2), path)
        code, out = run_cli(capsys, "verify", "--attack-file", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-2].startswith("PASS attack-file-bound: bound ")
        assert [ln.split(":")[0].split()[1] for ln in lines[:-2]] == self.CHECKS

    def test_bad_attack_file_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.attack"
        path.write_text(
            "FORWARD\n0 0 1.0\n0 1 0.0\n1 0 0.0\n1 1 1.0\n"
            "BACKWARD\n0 0 0 1\n0 0 1 0\n0 1 0 0\n0 1 1 1\n"
            "1 0 0 1\n1 0 1 0\n1 1 0 0\n1 1 1 1\n"
            "GRAM\n0 0 0 1 1 1 1.5\n")
        code, out = run_cli(capsys, "verify", "--attack-file", str(path))
        assert code == 1
        assert "FAIL attack-file-validation" in out


class TestSweep:
    def test_header_and_reference_rows(self, capsys):
        code, out = run_cli(capsys, "sweep", "--n", "3", "--q", "0", "--qtilde",
                            "0", "--q-step", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        assert lines[1] == "3,0,0,paper_literal,1,0,0.5,0,0.5"
        assert lines[2] == "3,0,0,theorem_exact,1,0,1,0,1"

    def test_p_ghz_column(self, capsys):
        _, out = run_cli(capsys, "sweep", "--n", "2", "--q", "0.1", "--qtilde",
                         "0.2", "--q-step", "0.1", "--mode", "theorem_exact")
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == "0.755"

    def test_deterministic_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--n", "2,3", "--q", "0:0.2", "--qtilde", "0:0.2",
              "--q-step", "0.1", "--out", str(f1)])
        main(["sweep", "--n", "2,3", "--q", "0:0.2", "--qtilde", "0:0.2",
              "--q-step", "0.1", "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()

    def test_huge_n_rows_are_finite(self, capsys):
        code, out = run_cli(capsys, "sweep", "--n", "2000", "--q", "0:1",
                            "--qtilde", "0:1", "--q-step", "0.5")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 18
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.split(",")[4:])

    def test_sweep_rows_capped(self, capsys):
        code = main(["sweep", "--q", "0:1", "--qtilde", "0:1", "--q-step", "1e-4"])
        assert code == 2
        assert "rows, over GRID_CAP" in capsys.readouterr().err

    def test_sweep_rows_capped_before_any_grid_is_built(self, capsys, monkeypatch):
        # each axis has 909,091 points, under GRID_CAP; the sweep is not
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(cli, "_parse_range", no_grid)
        code = main(["sweep", "--q", "0:1", "--qtilde", "0:1", "--q-step", "1.1e-6"])
        assert code == 2
        assert capsys.readouterr().err == ("sqcka: error: the sweep has 1652892892562 "
                                           "rows, over GRID_CAP = 1000000\n")

    def test_row_order(self, capsys):
        _, out = run_cli(capsys, "sweep", "--n", "3,2", "--q", "0:0.1",
                         "--qtilde", "0", "--q-step", "0.1")
        firsts = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert firsts == ["3"] * 4 + ["2"] * 4


@pytest.fixture(scope="module")
def figdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    assert main(["figures", "--out", str(out)]) == 0
    return out


class TestFigures:
    def test_files_exist(self, figdir):
        for name in ("fig2.csv", "fig3.csv", "fig4a.csv", "fig4b.csv",
                     "thresholds.csv"):
            assert (figdir / name).exists()

    def test_zero_forward_slice_always_positive(self, figdir):
        rows = (figdir / "fig4a.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            n, q, qt, mode, r = row.split(",")
            if 0.05 - 1e-9 <= float(qt) <= 0.95 + 1e-9:
                assert float(r) > 0.0, row

    def test_zero_forward_slice_has_no_crossing(self, figdir):
        rows = (figdir / "thresholds.csv").read_text().strip().splitlines()[1:]
        fig4a = [r for r in rows if r.startswith("fig4a")]
        assert len(fig4a) == 6
        assert all(r.endswith(",") for r in fig4a)

    def test_crossings_monotone_in_receiver_count(self, figdir):
        rows = (figdir / "thresholds.csv").read_text().strip().splitlines()[1:]
        table = {}
        for row in rows:
            fig, n, mode, crossing = row.split(",")
            if crossing:
                table.setdefault((fig, mode), []).append((int(n), float(crossing)))
        for (fig, mode), pts in table.items():
            pts.sort()
            xs = [x for _, x in pts]
            assert xs == sorted(xs), (fig, mode, xs)

    def test_backward_free_crossings_in_range(self, figdir):
        rows = (figdir / "thresholds.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            fig, n, mode, crossing = row.split(",")
            if fig == "fig4b":
                assert crossing and 0.0 < float(crossing) < 0.5


class TestCrossingFinder:
    def test_simple_linear(self):
        got = find_rate_crossing(lambda x: 0.25 - x)
        assert got == pytest.approx(0.25, abs=1e-4)

    def test_no_crossing(self):
        assert find_rate_crossing(lambda x: 1.0) is None

    def test_boundary_zero_not_a_crossing(self):
        assert find_rate_crossing(lambda x: 1.0 - x) is None


class TestSimulate:
    def test_identity_session_report(self, capsys, tmp_path):
        out_file = tmp_path / "t.txt"
        code, out = run_cli(capsys, "simulate", "--n", "2", "--q", "0",
                            "--qtilde", "0", "--rounds", "1000", "--seed", "3",
                            "--out", str(out_file))
        assert code == 0
        assert "p_ghz estimate: 1 " in out
        assert "per-receiver disagreement: 0 0" in out
        assert out_file.exists()
        from sqcka.estimation import tally_from_text
        t = tally_from_text(out_file.read_text())
        assert t.ghz_pass == t.ghz_total > 0

    def test_deterministic_report(self, capsys, tmp_path):
        args = ("simulate", "--n", "2", "--q", "0.15", "--qtilde", "0.05",
                "--rounds", "2000", "--seed", "11", "--ctrl-count", "200",
                "--out", str(tmp_path / "t.txt"))
        _, out1 = run_cli(capsys, *args)
        snap1 = (tmp_path / "t.txt").read_bytes()
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2
        assert (tmp_path / "t.txt").read_bytes() == snap1

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 1\nq = 0.0\nqtilde = 0.0\nrounds = 500\nseed = 9\n"
                       f"out = {tmp_path / 'tt.txt'}\n")
        code, out = run_cli(capsys, "simulate", "--config", str(cfg),
                            "--rounds", "300")
        assert code == 0
        assert "n=1 rounds=300" in out

    def test_attack_file_source(self, capsys, tmp_path):
        from sqcka.attacks import (DepolarizingParams, depolarizing_gram,
                                   depolarizing_tables, attack_from_tables,
                                   dump_attack_file)
        p = DepolarizingParams(0.2, 0.0, 1)
        path = tmp_path / "a.attack"
        dump_attack_file(attack_from_tables(depolarizing_tables(p),
                                            depolarizing_gram(p)), path)
        code, out = run_cli(capsys, "simulate", "--n", "1", "--rounds", "800",
                            "--seed", "5", "--attack-file", str(path),
                            "--out", str(tmp_path / "t.txt"))
        assert code == 0
        assert "attack=file" in out

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qq = 1\n")
        from sqcka.qmath import ValidationError
        with pytest.raises(ValidationError):
            cli.load_run_config(cfg)

    def test_duplicate_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.1\nrounds = 50\n\nq = 0.7\n")
        from sqcka.qmath import ValidationError
        with pytest.raises(ValidationError,
                           match=r"run.cfg:4: duplicate key 'q', first given on line 1"):
            cli.load_run_config(cfg)


class TestCleanExits:
    """Bad input ends in one ``sqcka: error:`` line and exit code 2."""

    def run_error(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("sqcka: error: ") and err.count("\n") == 1
        return err

    def test_missing_attack_file(self, capsys, tmp_path):
        err = self.run_error(capsys, "simulate", "--n", "1", "--rounds", "10",
                             "--attack-file", str(tmp_path / "none.attack"))
        assert "none.attack" in err

    def test_malformed_attack_file(self, capsys, tmp_path):
        path = tmp_path / "bad.attack"
        path.write_text("FORWARD\n0 zero 1.0\n")
        err = self.run_error(capsys, "simulate", "--n", "1", "--rounds", "10",
                             "--attack-file", str(path))
        assert "bad.attack:2: cannot parse" in err

    def test_negative_seed(self, capsys, tmp_path):
        err = self.run_error(capsys, "simulate", "--n", "1", "--rounds", "10",
                             "--seed", "-1", "--out", str(tmp_path / "t.txt"))
        assert "session seed -1 is negative" in err

    @pytest.mark.parametrize("n", [11, 22, 64])
    @pytest.mark.parametrize("q", ["0", "0.1"], ids=["identity", "depolarizing"])
    def test_oversized_n(self, capsys, tmp_path, n, q):
        err = self.run_error(capsys, "simulate", "--n", str(n), "--q", q,
                             "--rounds", "10", "--out", str(tmp_path / "t.txt"))
        assert f"an attack for n={n} needs tables of 2^{2 * n + 1} entries" in err
        assert not (tmp_path / "t.txt").exists()

    def test_no_receiver(self, capsys, tmp_path):
        err = self.run_error(capsys, "simulate", "--n", "-1", "--rounds", "10",
                             "--out", str(tmp_path / "t.txt"))
        assert "need at least one receiving party, got n=-1" in err

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 1\nqq = 1\n")
        err = self.run_error(capsys, "simulate", "--config", str(cfg))
        assert "run.cfg:2: unknown key 'qq'" in err

    def test_config_bad_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds = many\n")
        err = self.run_error(capsys, "simulate", "--config", str(cfg))
        assert "run.cfg:1: bad rounds" in err

    @pytest.mark.parametrize("argv,msg", [
        (("sweep", "--n", "3,x"), "--n '3,x' is not a comma-separated list"),
        (("sweep", "--q", "abc"), "--q 'abc' is not a number or a lo:hi range"),
        (("sweep", "--q", "0.5:0.1"), "--q range '0.5:0.1' has lo > hi"),
        (("simulate", "--ctrl-count", "-1", "--rounds", "10"),
         "num_ctrl -1 outside 0..num_rounds"),
        (("sweep", "--q", "0:1", "--q-step", "1e-10"), "over GRID_CAP"),
        (("sweep", "--q", "0:1", "--qtilde", "0:1", "--q-step", "1.1e-6"),
         "rows, over GRID_CAP"),
        (("simulate", "--rounds", "1000000000000", "--ctrl-count", "10"),
         "exceed ROUNDS_CAP"),
        (("simulate", "--rounds", "1e5"), "argument --rounds: invalid int value: '1e5'"),
        (("simulate", "--n", "abc"), "argument --n: invalid int value: 'abc'"),
        (("sweep", "--mode", "bogus"), "argument --mode: invalid choice: 'bogus'"),
        (("sweep", "--q-step", "x"), "argument --q-step: invalid float value: 'x'"),
    ], ids=["n-list", "q-value", "q-reversed", "ctrl-count", "q-step", "sweep-rows",
            "rounds", "rounds-not-int", "n-not-int", "mode-choice", "q-step-not-float"])
    def test_bad_flag_value(self, capsys, tmp_path, monkeypatch, argv, msg):
        monkeypatch.chdir(tmp_path)
        err = self.run_error(capsys, *argv)
        assert msg in err
        assert not (tmp_path / "tallies.txt").exists()
