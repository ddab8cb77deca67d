import csv
import dataclasses
import io
import multiprocessing
import re
import shlex
import threading
from pathlib import Path
from unittest import mock

import pytest

import bipart.cli
import bipart.parallel
from bipart.bounds import CONFIG_PRESETS
from bipart.cli import BENCH_COLUMNS, main, parse_campaign
from bipart.parallel import MAX_THREADS, worker_count
from bipart.graph import parse_graph
from bipart.solver import SearchStrategy, solve_sequential

README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_negative_vertex_count_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "generate", "-n", "-2", "-p", "0.5")
        assert code == 1
        assert "usage error" in err and "-n" in err
        assert out == ""

    def test_weight_range_below_its_minimum_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "generate", "-n", "5", "-p", "0.5",
                                 "-w", "5", "-W", "2")
        assert code == 1
        assert "usage error" in err
        assert out == ""


class TestSolve:
    @pytest.fixture
    def example_file(self, tmp_path):
        path = tmp_path / "g4.g"
        path.write_text("4 4\n0 1 3\n0 2 2\n1 2 5\n2 3 4\n")
        return str(path)

    def test_solve_emits_csv_row(self, example_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_file, "--s0", "2", "--s1", "2",
            "--config", "rebalance",
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0]["cut"] == "7"
        assert rows[0]["config"] == "rebalance"
        assert rows[0]["strategy"] == "dfs"
        assert list(rows[0].keys()) == BENCH_COLUMNS

    @pytest.mark.parametrize("flags,label", [
        ((), "trivial"),
        (("--config", "rebalance"), "rebalance"),
        (("--config", "highdegree"), "highdegree"),
        (("--config", "component"), "component"),
    ])
    def test_each_flag_set_has_its_own_label(self, example_file, capsys,
                                             flags, label):
        code, out, _ = run_cli(capsys, "solve", example_file, *flags)
        assert code == 0
        assert read_rows(out)[0]["config"] == label

    def test_flags_do_not_change_cut(self, example_file, capsys):
        cuts = set()
        for flags in ([], ["--config", "rebalance"],
                      ["--config", "component"]):
            code, out, _ = run_cli(
                capsys, "solve", example_file, "--s0", "2", "--s1", "2", *flags
            )
            assert code == 0
            cuts.add(read_rows(out)[0]["cut"])
        assert cuts == {"7"}

    def test_with_optimal_is_the_optimally_seeded_count(self, tmp_path,
                                                        capsys):
        """`--with-optimal` reports the nodes of a solve seeded with the
        optimum, on an instance whose heuristic seed is above it; the old
        `--initial VALUE` is gone."""
        path = tmp_path / "g16.g"
        assert run_cli(capsys, "generate", "-n", "16", "-p", "0.5", "-W", "9",
                       "--seed", "5", "-o", str(path))[0] == 0
        code, out, _ = run_cli(capsys, "solve", str(path), "--config",
                               "rebalance", "--with-optimal")
        assert code == 0
        [row] = read_rows(out)
        seeded = solve_sequential(
            parse_graph(path.read_text()), 8, 8, CONFIG_PRESETS["rebalance"],
            SearchStrategy.DFS, initial_value=int(row["cut"]))
        assert row["subproblems_with_optimal_initial"] == str(
            seeded.subproblems_explored)
        assert seeded.subproblems_explored < int(row["subproblems_explored"])
        code, out, err = run_cli(capsys, "solve", str(path), "--initial", "5")
        assert code == 1 and "usage error" in err and out == ""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("strategy", ["dfs", "lb", "gap"])
    def test_solve_prints_the_row_of_its_one_cell_campaign(
        self, tmp_path, capsys, strategy, threads
    ):
        """`solve` on a generated file and the campaign of that one instance
        agree on every column but the times and the generator's p, wmax and
        seed, which `solve` does not know."""
        path = tmp_path / "g14.g"
        assert run_cli(capsys, "generate", "-n", "14", "-p", "0.4", "-W", "50",
                       "--seed", "2", "-o", str(path))[0] == 0
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--config", "component",
            "--strategy", strategy, "--threads", threads, "--with-optimal")
        assert code == 0
        [solved] = read_rows(out)
        campaign = tmp_path / "c.txt"
        campaign.write_text(
            f"n = 14\np = 0.4\nwmax = 50\nseeds = 2\nconfigs = component\n"
            f"strategies = {strategy}\nthreads = {threads}\n"
            f"with_optimal = yes\n")
        code, out, _ = run_cli(capsys, "bench", "--campaign", str(campaign))
        assert code == 0
        [cell] = read_rows(out)
        skip = {"time_total", "time_to_optimum", "p", "wmax", "seed"}
        assert solved["subproblems_with_optimal_initial"] != ""
        assert ({c: solved[c] for c in BENCH_COLUMNS if c not in skip}
                == {c: cell[c] for c in BENCH_COLUMNS if c not in skip})
        assert solved["p"] == solved["wmax"] == solved["seed"] == ""

    def test_threads_flag_runs_parallel(self, example_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", example_file, "--threads", "2",
        )
        assert code == 0
        row = read_rows(out)[0]
        assert row["threads"] == "2" and row["cut"] == "7"

    def test_threads_reach_the_pool(self, tmp_path, capsys, monkeypatch):
        """With the pool forced, `--threads 2` searches in forked workers,
        unless this host has one CPU, and finds the `--threads 1` cut."""
        graph = tmp_path / "g16.g"
        assert run_cli(capsys, "generate", "-n", "16", "-p", "0.3", "-W", "9",
                       "--seed", "5", "-o", str(graph))[0] == 0
        monkeypatch.setattr(bipart.parallel, "NODE_BUDGET", 0)
        monkeypatch.setattr(bipart.parallel, "TASKS_PER_WORKER", 1)
        pool = mock.Mock(wraps=bipart.parallel._search_in_pool)
        monkeypatch.setattr(bipart.parallel, "_search_in_pool", pool)
        rows = {}
        for threads in ("1", "2"):
            code, out, _ = run_cli(capsys, "solve", str(graph), "--config",
                                   "rebalance", "--threads", threads)
            assert code == 0
            [rows[threads]] = read_rows(out)
        assert rows["1"]["cut"] == rows["2"]["cut"]
        assert rows["2"]["threads"] == "2"
        assert multiprocessing.active_children() == []
        assert pool.called or worker_count(2) == 1

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

    def test_s1_alone_gives_s0_the_rest(self, tmp_path, capsys):
        # Path 0-1-2-3-4.  With --s1 4, s0 is 1 rather than n // 2 = 2, and
        # the cheapest single vertex to cut off is vertex 4 (weight 2).
        path = tmp_path / "p5.g"
        path.write_text("5 4\n0 1 3\n1 2 4\n2 3 4\n3 4 2\n")
        code, out, _ = run_cli(capsys, "solve", str(path), "--s1", "4")
        assert code == 0
        assert read_rows(out)[0]["cut"] == "2"

    def test_infeasible_sizes_is_input_error(self, example_file, capsys):
        code, _, _ = run_cli(
            capsys, "solve", example_file, "--s0", "4", "--s1", "0"
        )
        assert code == 2

    def test_thread_count_above_the_cap_is_usage_error(
        self, example_file, capsys, monkeypatch
    ):
        before = threading.active_count()
        code, out, err = run_cli(
            capsys, "solve", example_file, "--threads", str(MAX_THREADS + 1)
        )
        assert code == 1 and "usage error" in err and out == ""
        monkeypatch.setenv("BIPART_THREADS", str(MAX_THREADS + 1))
        code, out, err = run_cli(capsys, "solve", example_file)
        assert code == 1 and "usage error" in err and out == ""
        assert threading.active_count() == before

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--bogus")
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("argv", [
        ("--rebalance",), ("--high-degree",), ("--component",),
        ("--config", "bogus"), ("--config", "trivial+component"),
    ])
    def test_removed_flag_or_unknown_config_is_usage_error(
        self, example_file, capsys, argv
    ):
        code, out, err = run_cli(capsys, "solve", example_file, *argv)
        assert code == 1 and "usage error" in err and out == ""

    def test_readme_command_line_examples_parse(self):
        """Every `bipart` line of README's "Command line" block parses, so
        the examples cannot drift from the flags."""
        section = README.read_text(encoding="utf-8").split(
            "## Command line", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        lines = [line for line in block.splitlines()
                 if line.startswith("bipart ")]
        assert len(lines) == 6
        for line in lines:
            bipart.cli.build_parser().parse_args(shlex.split(line)[1:])


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

    def test_reps_average_time(self, tmp_path, capsys, monkeypatch):
        """Both time columns are means over the reps, not the last rep's."""
        times = iter([(1.0, 0.5), (2.0, 0.25), (6.0, 3.0)])

        def timed_solve(*args, **kwargs):
            time_total, time_to_optimum = next(times)
            return dataclasses.replace(real_solve(*args, **kwargs),
                                       time_total=time_total,
                                       time_to_optimum=time_to_optimum)

        real_solve = bipart.cli.solve_parallel
        monkeypatch.setattr(bipart.cli, "solve_parallel", timed_solve)
        campaign = tmp_path / "c.txt"
        campaign.write_text("n = 8\nseeds = 0\nconfigs = trivial\nreps = 3\n")
        code, out, _ = run_cli(capsys, "bench", "--campaign", str(campaign))
        assert code == 0
        [row] = read_rows(out)
        assert float(row["time_total"]) == 3.0
        assert float(row["time_to_optimum"]) == 1.25

    def test_failed_cell_keeps_its_columns_and_the_campaign_goes_on(
        self, tmp_path, capsys, monkeypatch
    ):
        def solve_or_fail(graph, *args, **kwargs):
            if graph.n == 8:
                raise RuntimeError("boom")
            return real_solve(graph, *args, **kwargs)

        real_solve = bipart.cli.solve_parallel
        monkeypatch.setattr(bipart.cli, "solve_parallel", solve_or_fail)
        campaign = tmp_path / "c.txt"
        campaign.write_text("n = 8, 10\nwmax = 5\nseeds = 3\n"
                            "strategies = lb\nthreads = 2\n")
        code, out, err = run_cli(capsys, "bench", "--campaign", str(campaign))
        assert code == 0
        failed, solved = read_rows(out)
        labels = ["n", "p", "wmax", "seed", "config", "strategy", "threads"]
        assert [failed[c] for c in labels] == [
            "8", "0.500000", "5", "3", "trivial", "lb", "2"]
        assert all(failed[c] == "" for c in BENCH_COLUMNS if c not in labels)
        assert solved["n"] == "10" and solved["cut"] != ""
        assert "bench cell" in err and "boom" in err
        assert "Traceback" in err and "in solve_or_fail" in err

    def test_rows_of_an_interrupted_campaign_are_on_disk(
        self, tmp_path, monkeypatch
    ):
        """Each row is written as its cell finishes: Ctrl-C during the
        second cell leaves the header and the first row in --out."""
        calls = []

        def solve_then_interrupt(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real_solve(*args, **kwargs)

        real_solve = bipart.cli.solve_parallel
        monkeypatch.setattr(bipart.cli, "solve_parallel", solve_then_interrupt)
        campaign = tmp_path / "c.txt"
        campaign.write_text("n = 8, 10\n")
        out = tmp_path / "rows.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["bench", "--campaign", str(campaign), "--out", str(out)])
        [row] = read_rows(out.read_text())
        assert row["n"] == "8" and row["cut"] != ""

    def test_out_in_a_missing_directory_is_rejected_before_any_cell(
        self, tmp_path, capsys, monkeypatch
    ):
        solves = []
        monkeypatch.setattr("bipart.cli.solve_parallel",
                            lambda *a, **k: solves.append(a))
        campaign = tmp_path / "c.txt"
        campaign.write_text("n = 8\n")
        out = tmp_path / "missing" / "rows.csv"
        code, _, err = run_cli(
            capsys, "bench", "--campaign", str(campaign), "--out", str(out)
        )
        assert code == 2 and "input error" in err
        assert not solves and not out.exists()

    def test_unknown_config_rejected(self, tmp_path, capsys):
        campaign = tmp_path / "c.txt"
        campaign.write_text("n = 8\nconfigs = bogus\n")
        code, _, err = run_cli(capsys, "bench", "--campaign", str(campaign))
        assert code == 2
        assert "unknown config" in err

    @pytest.mark.parametrize("line, message", [
        ("threads = 1, 0, 65", "thread count"),
        ("threads = 65", "thread count"),
        ("n = 8, 1", "vertex count"),
    ])
    def test_out_of_range_threads_or_n_rejected(
        self, tmp_path, capsys, line, message
    ):
        campaign = tmp_path / "c.txt"
        # A line that sets n replaces the default one: a key may not repeat.
        campaign.write_text(line + "\n" if line.startswith("n =")
                            else f"n = 8\n{line}\n")
        out = tmp_path / "rows.csv"
        code, _, err = run_cli(
            capsys, "bench", "--campaign", str(campaign), "--out", str(out)
        )
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("p = 0.5, 1.5", "edge probability"),
        ("p = 0.5, -0.1", "edge probability"),
        ("wmin = 0", "minimum weight"),
        ("wmin = 5\nwmax = 1, 10", "maximum weight"),
        ("reps = -2", "reps"),
        ("reps = 0", "reps"),
        ("with_optimal = ture", "with_optimal"),
        ("seeds = 0, 1\nn = 8\nseeds = 2",
         "campaign line 3: n is already set on line 1"),
        ("with_optimal = yes\nwith_optimal = no",
         "campaign line 3: with_optimal is already set on line 2"),
        ("n = 6, 6", "campaign line 1: n lists 6 more than once"),
        ("seeds = 0, 0", "campaign line 2: seeds lists 0 more than once"),
        ("p = 0.5, 0.50", "campaign line 2: p lists 0.5 more than once"),
        ("configs = rebalance, rebalance",
         "campaign line 2: configs lists 'rebalance' more than once"),
    ])
    def test_out_of_range_campaign_values_rejected_before_any_cell(
        self, tmp_path, capsys, monkeypatch, line, message
    ):
        solves = []
        monkeypatch.setattr("bipart.cli.solve_parallel",
                            lambda *a, **k: solves.append(a))
        campaign = tmp_path / "c.txt"
        # A line that sets n replaces the default one: a key may not repeat.
        campaign.write_text(line + "\n" if line.startswith("n =")
                            else f"n = 8\n{line}\n")
        out = tmp_path / "rows.csv"
        code, _, err = run_cli(
            capsys, "bench", "--campaign", str(campaign), "--out", str(out)
        )
        assert code == 2
        assert message in err
        assert not solves and not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("seeds = x", "campaign line 2: seeds must be an integer, got 'x'"),
        ("n = 8, eight", "campaign line 2: n must be an integer, got 'eight'"),
        ("p = 0.5, half", "campaign line 2: p must be a number, got 'half'"),
        ("reps = 2.5", "campaign line 2: reps must be an integer, got '2.5'"),
    ])
    def test_non_numeric_value_names_its_line_and_key(
        self, tmp_path, capsys, line, message
    ):
        campaign = tmp_path / "c.txt"
        campaign.write_text(f"n = 8\n{line}\n")
        code, _, err = run_cli(capsys, "bench", "--campaign", str(campaign))
        assert code == 2
        assert err.strip() == f"bipart: input error: {message}"

    def test_with_optimal_accepts_both_spellings_of_each_switch(self):
        for value in ("yes", "true", "1", "on", "YES", "On"):
            assert parse_campaign(f"n = 6\nwith_optimal = {value}\n")[
                "with_optimal"] is True
        for value in ("no", "false", "0", "off", "FALSE", "Off"):
            assert parse_campaign(f"n = 6\nwith_optimal = {value}\n")[
                "with_optimal"] is False

    def test_parse_campaign_defaults(self):
        plan = parse_campaign("n = 6\n")
        assert plan["p"] == [0.5] and plan["seeds"] == [0]
        assert plan["configs"] == ["trivial"]

    def test_campaign_requires_n(self):
        with pytest.raises(ValueError, match="n"):
            parse_campaign("p = 0.5\n")

    @pytest.mark.parametrize("text, message", [
        ("seeds = 0\nn = 8, 1\n", "vertex count n must be at least 2, got 1"),
        ("n = 8\np = 1.5\n", "edge probability p must be in [0, 1], got 1.5"),
        ("n = 8\nwmin = 0\n", "minimum weight wmin must be at least 1, got 0"),
        ("n = 8\nthreads = 2, 0\n",
         f"thread count must be in 1..{MAX_THREADS}, got 0"),
        ("n = 8\nreps = 0\n", "reps must be at least 1, got 0"),
        ("n = 8\nconfigs = trivial, bogus\n",
         f"unknown config 'bogus'; choose from {sorted(CONFIG_PRESETS)}"),
        ("n = 8\nstrategies = bfs\n",
         "unknown strategy 'bfs'; choose from "
         f"{sorted(s.value for s in SearchStrategy)}"),
    ])
    def test_out_of_range_value_names_its_line(self, text, message):
        with pytest.raises(ValueError) as caught:
            parse_campaign(text)
        assert str(caught.value) == f"campaign line 2: {message}"

    def test_first_faulty_line_is_named(self):
        # A range fault on line 2 comes before a bad literal on line 3.
        with pytest.raises(ValueError, match="^campaign line 2: reps"):
            parse_campaign("n = 8\nreps = 0\nthreads = x\n")

    def test_parse_campaign_defaults_of_every_key(self):
        assert parse_campaign("n = 6\n") == {
            "n": [6], "p": [0.5], "wmax": [1], "wmin": 1, "seeds": [0],
            "configs": ["trivial"], "strategies": ["dfs"], "threads": [1],
            "reps": 1, "with_optimal": False,
        }

    def test_readme_campaign_example_parses_to_what_it_shows(self):
        section = README.read_text(encoding="utf-8").split(
            "### Campaign file format", 1)[1]
        example = re.search(r"```\n(.*?)```", section, re.S).group(1)
        assert parse_campaign(example) == {
            "n": [20, 30], "p": [1.0], "wmax": [1, 1000], "wmin": 1,
            "seeds": [0, 1, 2, 3, 4],
            "configs": ["trivial", "rebalance", "highdegree", "component"],
            "strategies": ["dfs"], "threads": [1], "reps": 3,
            "with_optimal": True,
        }
