"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.exec import BACKENDS


class TestPlan:
    def test_plan_prints_cost(self, capsys):
        assert main(["plan", "--input-gb", "8", "--deadline", "3"]) == 0
        out = capsys.readouterr().out
        assert "predicted cost" in out
        assert "$" in out

    def test_plan_hybrid(self, capsys):
        assert main(
            ["plan", "--input-gb", "8", "--deadline", "6", "--local-nodes", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "predicted cost" in out

    def test_infeasible_plan_fails_cleanly(self, capsys):
        assert main(["plan", "--input-gb", "64", "--deadline", "2"]) == 1
        assert "planning failed" in capsys.readouterr().err

    def test_plan_from_xml_catalog(self, tmp_path, capsys):
        from repro.cloud import public_cloud, save_services

        path = tmp_path / "services.xml"
        save_services(public_cloud(), str(path))
        assert main(
            ["plan", "--input-gb", "8", "--deadline", "3",
             "--services-xml", str(path)]
        ) == 0


class TestDeploy:
    def test_deploy_conductor(self, capsys):
        assert main(
            ["deploy", "--strategy", "conductor", "--input-gb", "4",
             "--deadline", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Conductor" in out

    def test_deploy_baseline(self, capsys):
        assert main(
            ["deploy", "--strategy", "hadoop-direct", "--input-gb", "4",
             "--deadline", "2", "--nodes", "8"]
        ) == 0
        assert "Hadoop direct" in capsys.readouterr().out


class TestServices:
    def test_emit(self, capsys):
        assert main(["services", "--emit"]) == 0
        assert "<resources>" in capsys.readouterr().out

    def test_validate_good(self, tmp_path, capsys):
        from repro.cloud import public_cloud, save_services

        path = tmp_path / "ok.xml"
        save_services(public_cloud(), str(path))
        assert main(["services", "--validate", str(path)]) == 0
        assert "ok: 3 services" in capsys.readouterr().out

    def test_validate_bad(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<resources><resource/></resources>")
        assert main(["services", "--validate", str(path)]) == 1

    def test_no_action_is_usage_error(self, capsys):
        assert main(["services"]) == 2


class TestSpot:
    def test_spot_scenario_runs(self, capsys):
        assert main(
            ["spot", "--trace", "aws", "--predictor", "p0", "--days", "3",
             "--input-gb", "8", "--deadline", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "average $" in out

    def test_unknown_predictor(self, capsys):
        assert main(["spot", "--predictor", "oracle"]) == 2


PIG_SCRIPT = (
    "a = LOAD 'clicks' AS (url:chararray, site:chararray, ms:int);\n"
    "g = GROUP a BY site;\n"
    "c = FOREACH g GENERATE group, COUNT(a) AS hits;\n"
    "STORE c INTO 'out';\n"
)


class TestPig:
    def test_compile_only(self, tmp_path, capsys):
        path = tmp_path / "job.pig"
        path.write_text(PIG_SCRIPT)
        assert main(
            ["pig", str(path), "--compile-only", "--input-gb", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "stage 0" in out
        assert "pipeline depth: 1" in out
        assert "map_ratio" in out

    def test_full_pipeline_plan(self, tmp_path, capsys):
        path = tmp_path / "job.pig"
        path.write_text(PIG_SCRIPT)
        assert main(
            ["pig", str(path), "--input-gb", "4", "--deadline", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "expected total" in out

    def test_missing_script(self, capsys):
        assert main(["pig", "/nonexistent/job.pig"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.pig"
        path.write_text("a = LOAD 'x' AS (;\n")
        assert main(["pig", str(path)]) == 1
        assert "compile error" in capsys.readouterr().err

    def test_semantic_error_reported(self, tmp_path, capsys):
        path = tmp_path / "dead.pig"
        path.write_text("a = LOAD 'x' AS (v:int);\n")  # no STORE
        assert main(["pig", str(path)]) == 1
        assert "compile error" in capsys.readouterr().err


SERVICE_ARGS = ["--pool", "inline", "--workers", "1"]


class TestSubmit:
    def test_submit_repeat_shows_cache(self, capsys):
        assert main(
            ["submit", "--input-gb", "4", "--deadline", "3", "--repeat", "2",
             *SERVICE_ARGS]
        ) == 0
        out = capsys.readouterr().out
        assert "via solver" in out
        assert "via cache" in out
        assert "predicted cost" in out

    def test_submit_writes_metrics_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            ["submit", "--input-gb", "4", "--deadline", "3", "--repeat", "3",
             "--metrics-json", str(path), *SERVICE_ARGS]
        ) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["submitted"] == 3

    def test_submit_infeasible_fails(self, capsys):
        assert main(
            ["submit", "--input-gb", "64", "--deadline", "2", *SERVICE_ARGS]
        ) == 1
        err = capsys.readouterr().err
        assert "planning failed" in err
        assert "infeasible" in err

    def test_submit_json_emits_wire_responses(self, capsys):
        import json

        assert main(
            ["submit", "--input-gb", "4", "--deadline", "3", "--repeat", "2",
             "--json", *SERVICE_ARGS]
        ) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [l["kind"] for l in lines] == ["plan_response"] * 2
        assert lines[0]["cached"] is False and lines[1]["cached"] is True
        assert lines[0]["predicted_cost"] > 0


class TestLoadgen:
    def test_small_workload_reports_metrics(self, capsys):
        assert main(
            ["loadgen", "--tenants", "2", "--requests", "6", "--seed", "1",
             *SERVICE_ARGS]
        ) == 0
        out = capsys.readouterr().out
        assert "requests/s" in out
        assert "hit rate" in out
        assert "p99" in out


def _request_line(tenant="acme", request_id="", **job) -> str:
    import json

    payload = {
        "schema_version": 1,
        "kind": "plan_request",
        "tenant": tenant,
        "job": job,
    }
    if request_id:
        payload["request_id"] = request_id
    return json.dumps(payload)


class TestServe:
    def test_serve_requests_file(self, tmp_path, capsys):
        import json

        job = {"input_gb": 4, "goal": {"deadline_hours": 3}}
        path = tmp_path / "requests.jsonl"
        path.write_text(
            _request_line(request_id="a-1", **job) + "\n"
            "# a comment line\n"
            + _request_line(request_id="a-2", **job) + "\n"
        )
        assert main(
            ["serve", "--requests-file", str(path), *SERVICE_ARGS]
        ) == 0
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()
                 if l.startswith("{")]
        assert lines[0]["kind"] == "hello"
        assert lines[0]["schema_version"] == 1
        assert lines[0]["version"]
        responses = [l for l in lines if l["kind"] == "plan_response"]
        assert len(responses) == 2
        assert responses[0]["cached"] is False
        assert responses[1]["cached"] is True
        assert [r["request_id"] for r in responses] == ["a-1", "a-2"]
        assert all(r["status"] == "completed" for r in responses)
        assert "hit rate" in captured.err

    def test_serve_failed_stream_is_structured(self, tmp_path, capsys):
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text(
            _request_line(input_gb=64, goal={"deadline_hours": 2}) + "\n"
        )
        assert main(
            ["serve", "--requests-file", str(path), *SERVICE_ARGS]
        ) == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        response = next(l for l in lines if l["kind"] == "plan_response")
        assert response["status"] == "failed"
        assert response["error"]["code"] == "infeasible"

    def test_serve_unknown_version_yields_bad_schema(self, tmp_path, capsys):
        """An unknown schema_version must come back as a structured
        error line, not a traceback."""
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text(
            '{"schema_version": 99, "kind": "plan_request", "job": {}}\n'
        )
        assert main(["serve", "--requests-file", str(path), *SERVICE_ARGS]) == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        error = next(l for l in lines if l["kind"] == "error")
        assert error["code"] == "bad_schema"
        assert "schema_version" in error["message"]

    def test_serve_bad_line_fails(self, tmp_path, capsys):
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text("not json\n")
        assert main(["serve", "--requests-file", str(path), *SERVICE_ARGS]) == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        error = next(l for l in lines if l["kind"] == "error")
        assert error["code"] == "bad_schema"

    def test_serve_wrong_kind_rejected(self, tmp_path, capsys):
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text('{"schema_version": 1, "kind": "hello"}\n')
        assert main(["serve", "--requests-file", str(path), *SERVICE_ARGS]) == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        error = next(l for l in lines if l["kind"] == "error")
        assert error["code"] == "bad_schema"
        assert "plan_request" in error["message"]

    def test_serve_missing_file(self, capsys):
        assert main(
            ["serve", "--requests-file", "/nonexistent.jsonl", *SERVICE_ARGS]
        ) == 1
        assert "cannot read" in capsys.readouterr().err


class TestIncrementalNeedsASharedPool:
    @pytest.mark.parametrize("command", [
        ["serve"],
        ["serve", "--pool", "process"],
        ["submit", "--input-gb", "4", "--deadline", "3"],
        ["loadgen"],
    ])
    def test_incremental_with_the_process_pool_is_a_usage_error(
        self, command, capsys
    ):
        # It used to start, build a solver and never call it.
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--incremental"])
        assert exit_info.value.code == 2
        assert "--pool thread|inline" in capsys.readouterr().err

    @pytest.mark.parametrize("pool", ["thread", "inline"])
    def test_serve_incremental_still_starts_on_a_shared_pool(
        self, pool, tmp_path, capsys
    ):
        import json

        path = tmp_path / "requests.jsonl"
        path.write_text(
            _request_line(input_gb=4, goal={"deadline_hours": 3}) + "\n"
            + _request_line(input_gb=4.1, goal={"deadline_hours": 3}) + "\n"
        )
        assert main(["serve", "--requests-file", str(path),
                     "--pool", pool, "--workers", "1", "--incremental"]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(l) for l in captured.out.splitlines()
                     if '"plan_response"' in l]
        assert [r["status"] for r in responses] == ["completed", "completed"]


class TestServeKeepsItsStdout:
    """A cold MILP solve points fd 1 at a sink while HiGHS runs; with a
    thread/inline pool that is the fd ``serve`` answers on."""

    def test_response_printed_while_a_solve_holds_fd1_muted(
        self, capfd, monkeypatch
    ):
        import sys
        import threading

        import numpy as np

        from repro import cli
        from repro.lp import scipy_backend
        from repro.lp.model import CompiledModel

        # pytest's own sys.stdout does not sit on fd 1; a real one does.
        monkeypatch.setattr(sys, "stdout", open(1, "w", closefd=False))
        # max x, x integer in [0, 4].
        compiled = CompiledModel(
            num_vars=1, objective=np.array([-1.0]), objective_offset=0.0,
            indptr=np.zeros(1, dtype=np.int32),
            indices=np.zeros(0, dtype=np.int32), data=np.zeros(0),
            row_lb=np.zeros(0), row_ub=np.zeros(0),
            var_lb=np.zeros(1), var_ub=np.array([4.0]),
            integrality=np.array([True]), col_names=("x",), negated=True,
        )

        inside, release = threading.Event(), threading.Event()

        class Held(scipy_backend._hs._Highs):
            def run(self):
                inside.set()
                assert release.wait(30.0)
                return super().run()

        monkeypatch.setattr(scipy_backend._hs, "_Highs", Held)
        with cli._own_stdout() as out:  # taken before the first solve
            solver = threading.Thread(
                target=scipy_backend.solve, args=(compiled, 30.0)
            )
            solver.start()
            assert inside.wait(30.0)

            def respond():
                print("response on the process's fd 1", flush=True)
                print("response on serve's own fd", file=out, flush=True)

            responder = threading.Thread(target=respond)
            responder.start()
            responder.join(30.0)
            release.set()
            solver.join(30.0)
        captured = capfd.readouterr().out
        assert "response on serve's own fd" in captured
        # The line the old code printed went down with HiGHS's noise.
        assert "response on the process's fd 1" not in captured

    def test_stdout_without_a_descriptor_is_used_as_is(self, capsys):
        import sys

        from repro import cli

        with cli._own_stdout() as out:
            assert out is sys.stdout
            print("captured", file=out, flush=True)
        assert capsys.readouterr().out == "captured\n"


class TestVersion:
    def test_version_flag(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "schema v1" in out

    def test_the_package_version_is_pyproject_version(self):
        import tomllib
        from pathlib import Path

        import repro
        from repro.cli import package_version

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        assert repro.__version__ == declared
        assert package_version() == declared

    def test_building_the_parser_reads_no_distribution_metadata(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli\n"
             "repro.cli.build_parser()\n"
             "assert 'importlib.metadata' not in sys.modules\n"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestDeployStream:
    def test_stream_emits_versioned_events(self, capsys):
        import json

        assert main(
            ["deploy", "--stream", "--input-gb", "4", "--deadline", "3"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        events = [json.loads(l) for l in lines if l.startswith("{")]
        assert events
        assert all(e["kind"] == "deploy_event" for e in events)
        assert all(e["schema_version"] == 1 for e in events)
        assert "deployed:" in lines[-1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_prints_the_same_run_on_every_backend(
        self, backend, capsys
    ):
        args = ["deploy", "--stream", "--input-gb", "4", "--deadline", "3"]
        assert main(args) == 0
        reference = capsys.readouterr().out
        assert main(args + ["--backend", backend]) == 0
        assert capsys.readouterr().out == reference
        assert "(met the deadline)" in reference.splitlines()[-1]

    def test_stream_rejects_baseline_strategy(self, capsys):
        assert main(
            ["deploy", "--stream", "--strategy", "hadoop-s3",
             "--input-gb", "4", "--deadline", "3"]
        ) == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestExport:
    def test_export_lp(self, tmp_path, capsys):
        path = tmp_path / "model.lp"
        assert main(
            ["export", str(path), "--input-gb", "4", "--deadline", "3"]
        ) == 0
        text = path.read_text()
        assert text.startswith("\\ Problem:")
        assert "Subject To" in text
        assert "wrote" in capsys.readouterr().out

    def test_export_mps(self, tmp_path):
        path = tmp_path / "model.mps"
        assert main(
            ["export", str(path), "--input-gb", "4", "--deadline", "3"]
        ) == 0
        assert path.read_text().startswith("NAME")

    def test_bad_extension(self, tmp_path, capsys):
        assert main(
            ["export", str(tmp_path / "model.txt"), "--deadline", "3"]
        ) == 2


class TestFleet:
    def test_fleet_streams_versioned_events(self, capsys):
        import json

        assert main(
            ["fleet", "--deployments", "2", "--input-gb", "2",
             "--deadline", "8", "--days", "5", "--predictor", "p0"]
        ) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        # Like serve, the stream opens with a versioned hello preamble.
        assert lines[0]["kind"] == "hello"
        events = lines[1:]
        assert events
        assert all(e["kind"] == "deploy_event" for e in events)
        assert all(e["schema_version"] == 1 for e in events)
        # Interval events omit the additive fields (pre-fleet readers
        # reject unknown keys); replan events must carry them.
        assert all(
            e.get("event", "interval") in ("interval", "replan")
            for e in events
        )
        assert {e["tenant"] for e in events} == {"tenant-1", "tenant-2"}
        assert "fleet (event): 2 deployments" in captured.err

    def test_fleet_interval_mode_and_budget(self, capsys):
        assert main(
            ["fleet", "--deployments", "2", "--input-gb", "2",
             "--deadline", "8", "--days", "5", "--predictor", "p0",
             "--mode", "interval", "--replan-budget", "0"]
        ) == 0
        assert "fleet (interval)" in capsys.readouterr().err

    def test_fleet_rejects_bad_arguments(self, capsys):
        assert main(["fleet", "--deployments", "0"]) == 2
        assert "--deployments" in capsys.readouterr().err
        assert main(["fleet", "--predictor", "psychic"]) == 2
        assert "unknown predictor" in capsys.readouterr().err
        assert main(["fleet", "--failure-rate", "1.0"]) == 2
        assert "--failure-rate" in capsys.readouterr().err
        assert main(["fleet", "--failure-rate", "-0.1"]) == 2
        assert "--failure-rate" in capsys.readouterr().err

    def test_fleet_metrics_json_requires_trace_log(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(
            ["fleet", "--deployments", "1", "--input-gb", "2",
             "--deadline", "8", "--days", "5", "--predictor", "p0",
             "--metrics-json", str(path)]
        ) == 2
        assert "--metrics-json requires --trace-log" in capsys.readouterr().err
        assert not path.exists()


class TestTraceLogging:
    """The event-sourced trace pipeline end to end, through the CLI."""

    FLEET_ARGS = ["fleet", "--deployments", "2", "--input-gb", "2",
                  "--deadline", "8", "--days", "5", "--predictor", "p0"]

    def fleet_log(self, tmp_path, capsys, extra=()):
        log = tmp_path / "fleet.jsonl"
        assert main(self.FLEET_ARGS + ["--trace-log", str(log), *extra]) == 0
        return log, capsys.readouterr()

    def test_fleet_writes_a_replayable_log(self, tmp_path, capsys):
        import json

        log, captured = self.fleet_log(tmp_path, capsys)
        # Streaming output is unchanged by tracing: hello, then events.
        assert json.loads(captured.out.splitlines()[0])["kind"] == "hello"
        kinds = [
            json.loads(line)["kind"] for line in log.read_text().splitlines()
        ]
        assert kinds[0] == "trace_hello"
        assert kinds[1] == "run_start"
        assert kinds[-1] == "run_end"
        assert "interval" in kinds

    def test_replay_verify_round_trip(self, tmp_path, capsys):
        log, _ = self.fleet_log(tmp_path, capsys)
        assert main(["replay", str(log), "--verify"]) == 0
        assert "verified: streams identical" in capsys.readouterr().out

    def test_replay_verify_flags_tampering(self, tmp_path, capsys):
        import json

        log, _ = self.fleet_log(tmp_path, capsys)
        lines = log.read_text().splitlines()
        index = next(
            i for i, line in enumerate(lines)
            if json.loads(line)["kind"] == "interval"
        )
        record = json.loads(lines[index])
        record["payload"]["cost"] += 1.0
        lines[index] = json.dumps(record, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(log), "--verify"]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_replay_resume_finishes_a_truncated_log(self, tmp_path, capsys):
        log, _ = self.fleet_log(tmp_path, capsys)
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[: 2 * len(lines) // 3]) + "\n")
        assert main(["replay", str(log), "--resume"]) == 0
        assert "fleet (event): 2 deployments" in capsys.readouterr().out

    def test_replay_timeline_and_mermaid(self, tmp_path, capsys):
        log, _ = self.fleet_log(tmp_path, capsys)
        chart = tmp_path / "run.mmd"
        assert main(["replay", str(log), "--mermaid", str(chart)]) == 0
        out = capsys.readouterr().out
        assert "trace " in out and "records" in out.splitlines()[0]
        assert chart.read_text().startswith("gantt")

    def test_replay_rejects_a_bad_log(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text("{not json\n")
        assert main(["replay", str(log)]) == 2
        assert "bad trace log" in capsys.readouterr().err
        assert main(["replay", str(tmp_path / "missing.jsonl")]) == 2
        assert "bad trace log" in capsys.readouterr().err

    def test_trace_summarize_emits_the_snapshot_format(
        self, tmp_path, capsys
    ):
        import json

        log, _ = self.fleet_log(tmp_path, capsys)
        assert main(["trace", "summarize", str(log)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"counters", "gauges", "series"}
        assert snapshot["counters"]["records.trace_hello"] == 1
        assert snapshot["gauges"]["run.completed"] == 2.0

    def test_fleet_metrics_json(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        self.fleet_log(tmp_path, capsys, ["--metrics-json", str(metrics)])
        snapshot = json.loads(metrics.read_text())
        assert set(snapshot) == {"counters", "gauges", "series"}
        assert "fleet.solve" in snapshot["series"]

    def test_deploy_stream_writes_a_log(self, tmp_path, capsys):
        import json

        log = tmp_path / "deploy.jsonl"
        assert main(
            ["deploy", "--stream", "--input-gb", "4", "--deadline", "3",
             "--trace-log", str(log)]
        ) == 0
        capsys.readouterr()
        kinds = [
            json.loads(line)["kind"] for line in log.read_text().splitlines()
        ]
        assert "snapshot" not in kinds and kinds[-1] == "run_end"
        assert main(["replay", str(log), "--verify"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_deploy_trace_log_requires_stream(self, capsys):
        assert main(
            ["deploy", "--input-gb", "4", "--deadline", "3",
             "--trace-log", "x.jsonl"]
        ) == 2
        assert "--trace-log requires --stream" in capsys.readouterr().err


def test_serve_non_finite_number_yields_bad_schema(tmp_path, capsys):
    """``Infinity`` parses as JSON but is no input size: bad_schema, not
    a solver error."""
    import json

    path = tmp_path / "requests.jsonl"
    path.write_text(
        '{"schema_version": 1, "kind": "plan_request", '
        '"job": {"input_gb": Infinity}}\n'
    )
    assert main(["serve", "--requests-file", str(path), *SERVICE_ARGS]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    error = next(l for l in lines if l["kind"] == "error")
    assert error["code"] == "bad_schema"
    assert "finite number" in error["message"]
