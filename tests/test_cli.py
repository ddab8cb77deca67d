import csv
import io

import pytest

from bipart.cli import BENCH_COLUMNS, main, parse_campaign
from bipart.graph import parse_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestGenerate:
    def test_complete_k20_header(self, tmp_path, capsys):
        out = tmp_path / "k20.g"
        code, _, _ = run_cli(
            capsys, "generate", "-n", "20", "-p", "1.0", "-w", "1",
            "--seed", "0", "-o", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "20 190"
        parse_graph(text)

    def test_weighted_generation_is_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.g", tmp_path / "b.g"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "generate", "-n", "40", "-p", "0.1", "-W", "1000",
                "--seed", "3", "-o", str(path),
            )
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_out_of_range_probability_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "-n", "5", "-p", "2.0")
        assert code == 1
        assert "usage error" in err


class TestSolve:
    @pytest.fixture
    def example_file(self, tmp_path):
        path = tmp_path / "g4.g"
        path.write_text("4 4\n0 1 3\n0 2 2\n1 2 5\n2 3 4\n")
        return str(path)

    def test_solve_emits_csv_row(self, example_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_file, "--s0", "2", "--s1", "2",
            "--rebalance",
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0]["cut"] == "7"
        assert rows[0]["config"] == "rebalance"
        assert rows[0]["strategy"] == "dfs"
        assert list(rows[0].keys()) == BENCH_COLUMNS

    def test_flags_do_not_change_cut(self, example_file, capsys):
        cuts = set()
        for flags in ([], ["--rebalance"], ["--rebalance", "--high-degree",
                                            "--doubling", "--component"]):
            code, out, _ = run_cli(
                capsys, "solve", example_file, "--s0", "2", "--s1", "2", *flags
            )
            assert code == 0
            cuts.add(read_rows(out)[0]["cut"])
        assert cuts == {"7"}

    def test_initial_populates_with_optimal_column(self, example_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_file, "--s0", "2", "--s1", "2",
            "--initial", "7",
        )
        assert code == 0
        row = read_rows(out)[0]
        assert row["subproblems_with_optimal_initial"] != ""

    def test_threads_flag_runs_parallel(self, example_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_file, "--threads", "2",
        )
        assert code == 0
        row = read_rows(out)[0]
        assert row["threads"] == "2" and row["cut"] == "7"

    def test_threads_env_var_default(self, example_file, capsys, monkeypatch):
        monkeypatch.setenv("BIPART_THREADS", "2")
        code, out, _ = run_cli(capsys, "solve", example_file)
        assert code == 0
        assert read_rows(out)[0]["threads"] == "2"

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent.g")
        assert code == 2
        assert "input error" in err

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.g"
        path.write_text("2 1\n0 0 5\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "line 2" in err

    def test_infeasible_sizes_is_input_error(self, example_file, capsys):
        code, _, _ = run_cli(
            capsys, "solve", example_file, "--s0", "4", "--s1", "0"
        )
        assert code == 2

    def test_doubling_without_high_degree_is_usage_error(
        self, example_file, capsys
    ):
        # Doubling only rescales the high-degree term; alone it would solve
        # without it while the config column said "doubling".
        for flags in (["--doubling"], ["--rebalance", "--doubling"]):
            code, out, err = run_cli(capsys, "solve", example_file, *flags)
            assert code == 1
            assert "usage error" in err and "--high-degree" in err
            assert out == ""

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--bogus")
        assert code == 1
        assert "usage error" in err


class TestBench:
    CAMPAIGN = """
# tiny campaign
n = 8, 10
p = 0.5
wmax = 1, 1000
seeds = 0, 1
configs = trivial, rebalance
strategies = dfs
threads = 1
"""

    def test_matrix_size_and_schema(self, tmp_path, capsys):
        campaign = tmp_path / "c.txt"
        campaign.write_text(self.CAMPAIGN)
        out = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--campaign", str(campaign), "--out", str(out)
        )
        assert code == 0
        rows = read_rows(out.read_text())
        assert len(rows) == 2 * 2 * 2 * 2  # n x wmax x seeds x configs
        assert all(list(r.keys()) == BENCH_COLUMNS for r in rows)

    def test_cut_identical_across_configs(self, tmp_path, capsys):
        campaign = tmp_path / "c.txt"
        campaign.write_text(self.CAMPAIGN)
        out = tmp_path / "rows.csv"
        assert run_cli(
            capsys, "bench", "--campaign", str(campaign), "--out", str(out)
        )[0] == 0
        rows = read_rows(out.read_text())
        by_instance = {}
        for r in rows:
            key = (r["n"], r["p"], r["wmax"], r["seed"])
            by_instance.setdefault(key, set()).add(r["cut"])
        assert all(len(cuts) == 1 for cuts in by_instance.values())

    def test_with_optimal_column(self, tmp_path, capsys):
        campaign = tmp_path / "c.txt"
        campaign.write_text("n = 8\nseeds = 0\nconfigs = rebalance\nwith_optimal = yes\n")
        code, out, _ = run_cli(capsys, "bench", "--campaign", str(campaign))
        assert code == 0
        rows = read_rows(out)
        assert rows[0]["subproblems_with_optimal_initial"] != ""

    def test_reps_average_time(self, tmp_path, capsys):
        campaign = tmp_path / "c.txt"
        campaign.write_text("n = 8\nseeds = 0\nconfigs = trivial\n")
        code, out, _ = run_cli(
            capsys, "bench", "--campaign", str(campaign), "--reps", "3"
        )
        assert code == 0
        assert len(read_rows(out)) == 1

    def test_unknown_config_rejected(self, tmp_path, capsys):
        campaign = tmp_path / "c.txt"
        campaign.write_text("n = 8\nconfigs = bogus\n")
        code, _, err = run_cli(capsys, "bench", "--campaign", str(campaign))
        assert code == 2
        assert "unknown config" in err

    def test_parse_campaign_defaults(self):
        plan = parse_campaign("n = 6\n")
        assert plan["p"] == [0.5] and plan["seeds"] == [0]
        assert plan["configs"] == ["trivial"]

    def test_campaign_requires_n(self):
        with pytest.raises(ValueError, match="n"):
            parse_campaign("p = 0.5\n")
