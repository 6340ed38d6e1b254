import json

import pytest

from aptstar.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestWorldgen:
    def test_dw_to_file(self, tmp_path):
        out = tmp_path / "dw.json"
        assert run_cli("worldgen", "--family", "dw", "--dim", "2", "--seed", "0",
                       "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["dimension"] == 2
        assert len(data["obstacles"]) >= 2

    def test_empty_to_stdout(self, capsys):
        assert run_cli("worldgen", "--family", "empty", "--dim", "3") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["obstacles"] == []

    def test_bad_params_exit_2(self):
        assert run_cli("worldgen", "--family", "dw", "--dim", "2",
                       "--gap-width", "0.6") == 2


class TestPlan:
    def test_plan_success(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        run_cli("worldgen", "--family", "empty", "--dim", "2", "--out", str(world))
        capsys.readouterr()
        code = run_cli("plan", "--world", str(world), "--planner", "apt",
                       "--max-iters", "2", "--seed", "0")
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["success"]
        assert record["c_final"] == pytest.approx(0.9, abs=1e-6)
        assert record["path"][0] == [0.05, 0.5]

    def test_plan_failure_exit_1(self, tmp_path, capsys):
        world = tmp_path / "walled.json"
        world.write_text(json.dumps({
            "dimension": 2,
            "bounds": {"min": [0, 0], "max": [1, 1]},
            "obstacles": [{"min": [0.45, 0.0], "max": [0.55, 1.0]}],
        }))
        code = run_cli("plan", "--world", str(world), "--planner", "rrt_connect",
                       "--max-iters", "50", "--seed", "0")
        capsys.readouterr()
        assert code == 1

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        run_cli("worldgen", "--family", "empty", "--dim", "2", "--out", str(world))
        code = run_cli("plan", "--world", str(world), "--planner", "apt",
                       "--start", "0.1,0.5,0.5", "--max-iters", "1")
        assert code == 2
        assert "start has 3 coordinates but the world has dimension 2" in (
            capsys.readouterr().err
        )

    def test_missing_world_exit_2(self):
        assert run_cli("plan", "--world", "/nonexistent.json", "--planner", "apt",
                       "--max-iters", "1") == 2

    def test_config_file_with_dotted_keys(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        run_cli("worldgen", "--family", "empty", "--dim", "2", "--out", str(world))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "charge.schedule": "exponential",
            "batch": {"m_min": 1, "m_max": 49},
        }))
        capsys.readouterr()
        code = run_cli("plan", "--world", str(world), "--planner", "apt",
                       "--config", str(cfg), "--max-iters", "2")
        capsys.readouterr()
        assert code == 0

    def test_bad_config_exit_2(self, tmp_path):
        world = tmp_path / "w.json"
        run_cli("worldgen", "--family", "empty", "--dim", "2", "--out", str(world))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"charge": {"schedule": "bogus"}}))
        assert run_cli("plan", "--world", str(world), "--planner", "apt",
                       "--config", str(cfg), "--max-iters", "1") == 2

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"charge.epsilon": float("nan")}, "epsilon must be finite"),
            ({"charge.q_max": float("inf")}, "q_max finite"),
            ({"batch": {"m_min": 1, "m_max": 199.5}}, "m_min and m_max must be integers"),
            # the batch schedule takes its dimension from the world
            ({"batch.n_dim": 4}, "n_dim"),
            ({"neighbor.k": float("inf")}, "k must be nonnegative and finite"),
            ({"motion_resolution": float("inf")}, "motion_resolution must be positive and finite"),
            # these two pass construction and are rejected when the run starts
            ({"motion_resolution": 1e-300}, "motion_resolution 1e-300 is finer"),
            ({"neighbor.min_pair_distance": 5e-324}, "min_pair_distance 5e-324 is too small"),
        ],
    )
    def test_bad_charge_or_batch_config_exit_2(self, tmp_path, capsys, config, message):
        # each used to pass construction and fail inside the first batch, or
        # (batch.n_dim) be ignored
        world = tmp_path / "w.json"
        run_cli("worldgen", "--family", "dw", "--dim", "2", "--out", str(world))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("plan", "--world", str(world), "--planner", "apt",
                       "--config", str(cfg), "--max-iters", "3") == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        world = tmp_path / "w.json"
        run_cli("worldgen", "--family", "empty", "--dim", "2", "--out", str(world))
        capsys.readouterr()
        assert run_cli("plan", "--world", str(world), "--planner", "apt",
                       "--max-iters", "1", "--seed", "-1") == 2
        assert "rng_seed must be a nonnegative integer" in capsys.readouterr().err


class TestBenchAndSummarize:
    def test_end_to_end(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "suite": "mini",
            "trials": 2,
            "worlds": [{"family": "empty", "dimension": 2}],
            "planners": [
                {"id": "apt", "config": {"max_iterations": 1}},
                {"id": "bit", "config": {"max_iterations": 1}},
            ],
        }))
        out_dir = tmp_path / "results"
        assert run_cli("bench", "--suite", str(suite), "--out", str(out_dir)) == 0
        capsys.readouterr()
        results = out_dir / "mini.results.jsonl"
        assert results.exists()
        assert run_cli("summarize", "--in", str(out_dir)) == 0
        table = capsys.readouterr().out
        assert "apt" in table and "bit" in table
        assert "0.9000" in table

    @pytest.mark.parametrize("seed_base", [-1, 1.5])
    def test_bad_seed_base_exit_2(self, tmp_path, capsys, seed_base):
        # the seeded configs are built before any run, outside the per-run
        # error capture, so a bad seed stops the suite instead of being
        # recorded as a failed run
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "suite": "mini",
            "trials": 1,
            "seed_base": seed_base,
            "worlds": [{"family": "empty", "dimension": 2}],
            "planners": [{"id": "apt", "config": {"max_iterations": 1}}],
        }))
        out_dir = tmp_path / "results"
        capsys.readouterr()
        assert run_cli("bench", "--suite", str(suite), "--out", str(out_dir)) == 2
        assert "rng_seed must be a nonnegative integer" in capsys.readouterr().err
        # the header only: no run was recorded
        records = (out_dir / "mini.results.jsonl").read_text().splitlines()
        assert len(records) == 1 and "format" in json.loads(records[0])

    @pytest.mark.parametrize("option, value", [("jobs", "0"), ("jobs", "-1"), ("trials", 2.5)])
    def test_bad_jobs_or_trials_exit_2(self, tmp_path, capsys, option, value):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "suite": "mini",
            "trials": value if option == "trials" else 1,
            "worlds": [{"family": "empty", "dimension": 2}],
            "planners": [{"id": "apt", "config": {"max_iterations": 1}}],
        }))
        args = ["bench", "--suite", str(suite), "--out", str(tmp_path / "results")]
        if option == "jobs":
            args += ["--jobs", value]
        capsys.readouterr()
        assert run_cli(*args) == 2
        assert f"{option} must be a positive integer" in capsys.readouterr().err

    def test_rejected_jobs_leave_no_results_file(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        for suite_id, jobs, code in (("good", "1", 0), ("bad", "0", 2)):
            suite = tmp_path / f"{suite_id}.json"
            suite.write_text(json.dumps({
                "suite": suite_id,
                "trials": 1,
                "worlds": [{"family": "empty", "dimension": 2}],
                "planners": [{"id": "bit", "config": {"max_iterations": 1}}],
            }))
            assert run_cli("bench", "--suite", str(suite), "--out", str(out_dir),
                           "--jobs", jobs) == code
        assert [p.name for p in out_dir.iterdir()] == ["good.results.jsonl"]
        capsys.readouterr()
        assert run_cli("summarize", "--in", str(out_dir)) == 0
        assert "bit" in capsys.readouterr().out

    def test_summarize_missing_dir(self, tmp_path):
        assert run_cli("summarize", "--in", str(tmp_path)) == 2
