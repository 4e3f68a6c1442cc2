"""Tests of the µP4C command-line interface."""

import json

import pytest

from repro.cli import main
from repro.errors import EXIT_COMPILE_ERROR, EXIT_RESOURCE_ERROR
from repro.lib.loader import load_module_source


@pytest.fixture()
def module_files(tmp_path):
    paths = {}
    for name in ("eth", "l3_v4v6", "ipv4", "ipv6"):
        path = tmp_path / f"{name}.up4"
        path.write_text(load_module_source(name))
        paths[name] = str(path)
    return paths


class TestCompile:
    def test_compile_to_stdout(self, module_files, capsys):
        assert main(["compile", module_files["ipv4"]]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["version"] == 1

    def test_compile_to_file(self, module_files, tmp_path, capsys):
        out_file = tmp_path / "ipv4.ir.json"
        assert main(["compile", module_files["ipv4"], "-o", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["version"] == 1

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.up4"
        bad.write_text("header broken {")
        assert main(["compile", str(bad)]) == EXIT_COMPILE_ERROR
        assert "error[parse-error]:" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        rc = main(["compile", str(tmp_path / "nope.up4")])
        assert rc == 1
        assert "error[io-error]:" in capsys.readouterr().err


class TestBuild:
    def order(self, files):
        return [files["eth"], files["l3_v4v6"], files["ipv4"], files["ipv6"]]

    def test_build_v1model(self, module_files, tmp_path, capsys):
        out_file = tmp_path / "main.p4"
        rc = main(
            ["build", *self.order(module_files), "--target", "v1model",
             "-o", str(out_file)]
        )
        assert rc == 0
        text = out_file.read_text()
        assert "control Ingress()" in text
        stdout = capsys.readouterr().out
        assert "El=54B" in stdout

    def test_build_tna_report(self, module_files, capsys):
        rc = main(
            ["build", *self.order(module_files), "--target", "tna", "--report"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage placement" in out
        assert "PHV:" in out

    def test_build_accepts_ir_json(self, module_files, tmp_path, capsys):
        ir_file = tmp_path / "ipv4.ir.json"
        main(["compile", module_files["ipv4"], "-o", str(ir_file)])
        capsys.readouterr()
        files = self.order(module_files)
        files[2] = str(ir_file)
        assert main(["build", *files, "--target", "tna"]) == 0

    def test_build_no_align_no_split_reports_error(self, module_files, capsys):
        # Disabling both §6.3 passes makes the build fail cleanly.
        rc = main(
            ["build", *self.order(module_files), "--target", "tna",
             "--no-align", "--no-split"]
        )
        assert rc == EXIT_RESOURCE_ERROR
        err = capsys.readouterr().err
        assert "error[resource-error]:" in err
        assert "ALU" in err

    def test_missing_provider_error(self, module_files, capsys):
        rc = main(["build", module_files["eth"], "--target", "v1model"])
        assert rc == EXIT_COMPILE_ERROR
        assert "error[link-error]:" in capsys.readouterr().err


class TestInfoCommands:
    def test_arch(self, capsys):
        assert main(["arch"]) == 0
        assert "Unicast" in capsys.readouterr().out

    def test_library(self, capsys):
        assert main(["library"]) == 0
        out = capsys.readouterr().out
        assert "P4: eth + l3_v4v6 + ipv4 + ipv6" in out


class TestObservabilityFlags:
    def order(self, files):
        return [files["eth"], files["l3_v4v6"], files["ipv4"], files["ipv6"]]

    def test_build_trace_prints_pass_table(self, module_files, capsys):
        rc = main(["build", *self.order(module_files), "--target", "tna",
                   "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("frontend", "midend.link", "midend.compose",
                     "backend.tna", "total"):
            assert name in out

    def test_build_metrics_file(self, module_files, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        rc = main(["build", *self.order(module_files), "--target", "tna",
                   "--metrics", str(metrics_file)])
        assert rc == 0
        snap = json.loads(metrics_file.read_text())
        keys = {*snap["counters"], *snap["gauges"], *snap["histograms"]}
        # The acceptance bar: >= 10 distinct keys spanning all layers.
        assert len(keys) >= 10
        assert any(k.startswith("frontend.") for k in keys)
        assert any(k.startswith(("linker.", "analysis.", "compose."))
                   for k in keys)
        assert any(k.startswith("tna.") for k in keys)

    def test_build_metrics_stdout(self, module_files, capsys):
        rc = main(["build", *self.order(module_files), "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"counters"' in out

    def test_build_json_output(self, module_files, capsys):
        rc = main(["build", *self.order(module_files), "--target", "tna",
                   "--json", "--trace"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "micro"
        assert payload["report"]["stages"] > 0
        assert payload["trace"], "expected recorded spans in JSON mode"

    def test_build_output_file_tna(self, module_files, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        rc = main(["build", *self.order(module_files), "--target", "tna",
                   "-o", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        assert "stage placement" in text
        assert "PHV:" in text

    def test_eval_json(self, capsys):
        rc = main(["eval", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        programs = [row["program"] for row in payload["rows"]]
        assert programs == ["P1", "P2", "P3", "P4", "P5", "P6", "P7"]
        assert all(row["stages_micro"] > 0 for row in payload["rows"])


class TestProfile:
    def test_profile_composition(self, capsys):
        rc = main(["profile", "P4"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("frontend", "midend.link", "midend.compose",
                     "backend.tna"):
            assert name in out

    def test_profile_nonzero_walltimes(self, capsys):
        rc = main(["profile", "P4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        spans = {s["name"]: s for s in payload["trace"]}
        for name in ("frontend", "midend.link", "midend.compose",
                     "backend.tna"):
            assert spans[name]["duration_ms"] > 0.0
        assert payload["total_ms"] > 0.0
        keys = {*payload["metrics"]["counters"],
                *payload["metrics"]["gauges"],
                *payload["metrics"]["histograms"]}
        assert len(keys) >= 10

    def test_profile_module_files(self, module_files, capsys):
        rc = main(["profile", module_files["eth"], module_files["l3_v4v6"],
                   module_files["ipv4"], module_files["ipv6"],
                   "--target", "v1model"])
        assert rc == 0
        assert "backend.v1model" in capsys.readouterr().out

    def test_profile_unknown_composition_fails(self, capsys):
        rc = main(["profile", "P99"])
        assert rc == EXIT_COMPILE_ERROR
        err = capsys.readouterr().err
        assert "error[compile-error]:" in err
        assert "known: P1" in err

    def test_profile_missing_file_fails(self, tmp_path, capsys):
        rc = main(["profile", str(tmp_path / "nope.up4")])
        assert rc == 1
        assert "error[io-error]:" in capsys.readouterr().err

    def test_profile_packets_surfaces_lookup_counters(self, capsys):
        rc = main(["profile", "P4", "--packets", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "behavioral run: 30 packets" in out
        assert "table lookups: indexed=" in out
        assert "lookup strategies:" in out

    def test_profile_sharded_matches_inline_lookups(self, capsys):
        rc = main(["profile", "P4", "--packets", "30", "--json"])
        assert rc == 0
        inline = json.loads(capsys.readouterr().out)["behavior"]
        rc = main(["profile", "P4", "--packets", "30", "--workers", "2",
                   "--shard-policy", "round-robin", "--json"])
        assert rc == 0
        sharded = json.loads(capsys.readouterr().out)["behavior"]
        assert sharded["workers"] == 2
        assert len(sharded["shards"]) == 2
        # Sharding never changes what the pipeline does, only where:
        # merged lookup counters equal the single-process run.
        assert sharded["lookups"] == inline["lookups"]
        assert sharded["outputs"] == inline["outputs"]
        assert sharded["table_strategies"] == inline["table_strategies"]

    def test_profile_sharded_text_mentions_workers(self, capsys):
        rc = main(["profile", "P4", "--packets", "30", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workers: 2 (flow-hash)" in out

    def test_profile_packets_json(self, capsys):
        rc = main(["profile", "P4", "--packets", "30", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        behavior = payload["behavior"]
        assert behavior["packets"] == 30
        assert behavior["lookups"]["indexed"] > 0
        assert (
            payload["metrics"]["counters"]["interp.lookup.indexed"]
            == behavior["lookups"]["indexed"]
        )
        assert set(behavior["table_strategies"]) <= {
            "exact-hash", "lpm-buckets", "compiled-scan",
        }

    def test_profile_exec_codegen_runs_columnwise(self, capsys):
        # The push is a soak, so full batches reach the columnwise tier
        # (a per-packet loop never would) and the base routes are
        # installed (without them every packet was dropped).
        pytest.importorskip("numpy")
        rc = main(["profile", "P4", "--packets", "600", "--exec", "codegen",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["metrics"]["counters"]
        assert any(
            name.startswith("vector.index.") and count > 0
            for name, count in counters.items()
        )
        # 256 + 256 lanes columnwise; the last 88 are below the floor.
        assert counters["vector.soa_fallback_batches"] == 1
        assert counters["vector.lane_loop.narrow"] == 1
        assert payload["behavior"]["outputs"] > 0
        assert "aggregate_pkts_per_sec" not in payload["behavior"]

    def test_profile_lookups_follow_the_executor_not_the_name(self, capsys):
        """``vector`` names the codegen executor: the hits and misses it
        reports are codegen's counters, not an empty ``vector.*``."""
        behaviors = {}
        for name in ("codegen", "vector"):
            assert main(["profile", "P4", "--packets", "300", "--exec", name,
                         "--json"]) == 0
            behaviors[name] = json.loads(capsys.readouterr().out)["behavior"]
        lookups = behaviors["vector"]["lookups"]
        assert lookups == behaviors["codegen"]["lookups"]
        assert lookups["hits"] > 0 and lookups["misses"] > 0
        assert behaviors["vector"]["exec"] == "vector"

    def test_profile_module_files_sharded_matches_inline(
        self, module_files, capsys
    ):
        files = [module_files["eth"], module_files["l3_v4v6"],
                 module_files["ipv4"], module_files["ipv6"]]
        assert main(["profile", *files, "--packets", "200", "--json"]) == 0
        inline = json.loads(capsys.readouterr().out)["behavior"]
        assert main(["profile", *files, "--packets", "200", "--workers", "2",
                     "--shard-policy", "round-robin", "--json"]) == 0
        sharded = json.loads(capsys.readouterr().out)["behavior"]
        assert inline["outputs"] > 0
        for key in ("outputs", "lookups", "table_strategies"):
            assert sharded[key] == inline[key], key
        assert inline["ledger_ok"] and sharded["ledger_ok"]

    def test_profile_installs_only_the_routes_a_program_declares(
        self, tmp_path, capsys
    ):
        from tests.midend.test_hdr_stack import SRC

        path = tmp_path / "stacked.up4"
        path.write_text(SRC)  # none of the catalog's base tables
        assert main(["profile", str(path), "--packets", "50", "--json"]) == 0
        behavior = json.loads(capsys.readouterr().out)["behavior"]
        assert behavior["packets"] == 50
        assert behavior["ledger_ok"]

    @pytest.mark.parametrize("json_flag", ([], ["--json"]))
    def test_profile_negative_packets_rejected(self, json_flag, capsys):
        rc = main(["profile", "P4", "--packets", "-5", *json_flag])
        captured = capsys.readouterr()
        assert rc == 4
        assert "error[bad-packet-count]:" in captured.err
        if json_flag:
            assert json.loads(captured.out)["code"] == "bad-packet-count"


class TestOptimizeFlag:
    def test_build_with_optimize(self, module_files, capsys):
        files = [module_files["eth"], module_files["l3_v4v6"],
                 module_files["ipv4"], module_files["ipv6"]]
        rc = main(["build", *files, "--target", "tna", "--optimize"])
        assert rc == 0
        out = capsys.readouterr().out
        # Fewer MATs than the unoptimized build (11 -> 6).
        assert "6 MATs" in out


class TestSoak:
    def test_soak_smoke_text(self, capsys):
        rc = main(["soak", "--programs", "P4", "--packets", "300",
                   "--fault-rate", "0.1", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "result: OK" in out
        assert "accounting:" in out

    def test_soak_json_and_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "soak.json"
        rc = main(["soak", "--programs", "P4", "--packets", "300",
                   "--seed", "7", "--json", "--out", str(out_file)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        block = payload["programs"]["P4"]
        assert block["units"] == block["emits"] + block["drops"]
        assert json.loads(out_file.read_text())["digest"] == payload["digest"]

    def test_soak_deterministic_digest(self, capsys):
        digests = []
        for _ in range(2):
            assert main(["soak", "--programs", "P4", "--packets", "300",
                         "--seed", "11", "--json"]) == 0
            digests.append(json.loads(capsys.readouterr().out)["digest"])
        assert digests[0] == digests[1]

    def test_soak_fault_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"sites": {"table:ipv4_lpm_tbl": 0.5}}))
        rc = main(["soak", "--programs", "P4", "--packets", "300",
                   "--seed", "7", "--fault-spec", str(spec), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "table:ipv4_lpm_tbl" in payload["programs"]["P4"]["fault_trips"]

    def test_soak_bad_fault_spec_fails(self, tmp_path, capsys):
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"sites": {"warp-core": 1.0}}))
        rc = main(["soak", "--programs", "P4", "--fault-spec", str(spec)])
        assert rc != 0
        assert "error[" in capsys.readouterr().err

    def test_soak_unknown_program_fails(self, capsys):
        rc = main(["soak", "--programs", "P99", "--packets", "10"])
        assert rc != 0
        assert "unknown soak program" in capsys.readouterr().err

    def test_soak_workers_json_ok_and_deterministic(self, capsys):
        digests = []
        for _ in range(2):
            rc = main(["soak", "--programs", "P4", "--packets", "300",
                       "--seed", "7", "--workers", "2", "--json"])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["ok"] is True
            block = payload["programs"]["P4"]
            assert block["workers"] == 2
            assert block["units"] == block["emits"] + block["drops"]
            assert len(block["shards"]) == 2
            digests.append(payload["digest"])
        assert digests[0] == digests[1]

    def test_soak_workers_text_lists_shards(self, capsys):
        rc = main(["soak", "--programs", "P4", "--packets", "200",
                   "--seed", "7", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workers=2 (flow-hash)" in out
        assert "shard 0:" in out
        assert "shard 1:" in out

    @pytest.mark.parametrize("json_flag", ([], ["--json"]))
    def test_soak_negative_packets_rejected(self, json_flag, capsys):
        # Regression: exit 0 with `"ok": true` and nothing run.
        rc = main(["soak", "--programs", "P4", "--packets", "-5", *json_flag])
        captured = capsys.readouterr()
        assert rc == 4
        assert "error[bad-packet-count]:" in captured.err
        if json_flag:
            payload = json.loads(captured.out)
            assert payload["ok"] is False
            assert payload["code"] == "bad-packet-count"

    @pytest.mark.parametrize(
        "programs, code",
        [
            # Regression: both soaked nothing and printed `result: OK`.
            ("", "no-programs"),
            (",", "no-programs"),
            # Regression: P4 soaked twice, reported as one block.
            ("P4,P4", "duplicate-program"),
        ],
    )
    def test_soak_program_list_rejected(self, programs, code, capsys):
        rc = main(["soak", "--programs", programs, "--packets", "10"])
        assert rc == 4
        assert f"error[{code}]:" in capsys.readouterr().err

    def test_soak_negative_workers_rejected(self, capsys):
        # Regression: -3 must not silently fall back to the inline path.
        rc = main(["soak", "--programs", "P4", "--packets", "10",
                   "--workers", "-3"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "error[bad-workers]:" in err
        assert "workers must be >= 1" in err

    def test_soak_negative_publish_interval_rejected(self, capsys, tmp_path):
        # Regression: a negative interval silently disabled publishing.
        rc = main(["soak", "--programs", "P4", "--packets", "10",
                   "--workers", "2", "--publish-interval", "-1",
                   "--metrics-out", str(tmp_path / "final.json")])
        assert rc == 4
        assert "error[bad-publish-interval]:" in capsys.readouterr().err

    def test_soak_workers_unknown_program_structured_error(self, capsys):
        rc = main(["soak", "--programs", "P99", "--packets", "10",
                   "--workers", "2", "--json"])
        captured = capsys.readouterr()
        assert rc != 0
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert "unknown soak program" in payload["error"]

    def test_soak_rejects_unknown_ingest(self, capsys):
        # There is one transport; the flag that used to pick between
        # two is a usage error, not a silently ignored option.
        with pytest.raises(SystemExit) as exc:
            main(["soak", "--programs", "P4", "--packets", "10",
                  "--workers", "2", "--ingest", "dispatch"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ingest" in capsys.readouterr().err


class TestFailureChannels:
    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        # make_parser() binds func=cmd_soak at parser-build time, so
        # patching the module attribute before main() is enough.
        import repro.cli as cli_mod

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "cmd_soak", boom)
        rc = cli_mod.main(["soak", "--packets", "1"])
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err

    def test_keyboard_interrupt_json_is_structured(self, capsys, monkeypatch):
        import repro.cli as cli_mod

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "cmd_soak", boom)
        rc = cli_mod.main(["soak", "--packets", "1", "--json"])
        captured = capsys.readouterr()
        assert rc == 130
        payload = json.loads(captured.out)
        assert payload == {
            "ok": False,
            "error": "interrupted",
            "code": "interrupted",
            "exit_code": 130,
        }
        assert "interrupted" in captured.err

    def test_worker_failure_reports_engine_error(self, capsys, monkeypatch):
        # Force a worker crash through the real pool: the CLI must exit
        # non-zero with the engine's structured error in --json mode.
        from tests.targets.helpers import sabotage_shard0

        sabotage_shard0(monkeypatch, "error")
        rc = main(["soak", "--programs", "P4", "--packets", "50",
                           "--workers", "2", "--json"])
        captured = capsys.readouterr()
        assert rc == 4
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert payload["code"] == "engine-error"
        assert payload["shard"] == 0
        assert "error[engine-error]:" in captured.err

    def test_json_mode_reports_structured_error(self, tmp_path, capsys):
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"sites": {"warp-core": 1.0}}))
        rc = main(["soak", "--programs", "P4", "--packets", "10",
                   "--fault-spec", str(spec), "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert payload["code"] == "bad-fault-spec"
        assert payload["exit_code"] == rc
        assert "error[bad-fault-spec]:" in captured.err


class TestSoakInputValidation:
    """Bad soak inputs fail once, in the parent, with a reason code:
    never an internal error, and never inside a worker the supervisor
    then restarts."""

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        from repro.targets.pool import WorkerPool

        started = []
        monkeypatch.setattr(
            WorkerPool, "start", lambda pool: started.append(pool)
        )
        return started

    @pytest.mark.parametrize("workers", ([], ["--workers", "2"]))
    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            json.dumps([{"sites": {"table": 0.1}}]),
            json.dumps({"sites": {"table": "abc"}}),
            json.dumps({"sites": {"tabel": 0.1}}),
        ],
        ids=["not-json", "array", "non-numeric-rate", "unknown-site"],
    )
    def test_bad_fault_spec(self, tmp_path, capsys, no_pool, text, workers):
        spec = tmp_path / "faults.json"
        spec.write_text(text)
        rc = main(["soak", "--programs", "P4", "--packets", "500",
                   "--fault-spec", str(spec), "--json", *workers])
        captured = capsys.readouterr()
        assert rc == 4
        assert json.loads(captured.out)["code"] == "bad-fault-spec"
        assert "error[bad-fault-spec]:" in captured.err
        assert no_pool == []  # rejected before any worker started

    @pytest.mark.parametrize(
        "flag",
        [
            ["--max-restarts", "0"],
            ["--restart-budget", "1"],
            ["--restart-backoff", "0.1"],
            ["--chaos", "kill:shard=0@pkt=1"],
        ],
    )
    def test_pool_flags_require_workers(self, capsys, flag):
        rc = main(["soak", "--programs", "P4", "--packets", "10", *flag])
        assert rc == 4
        err = capsys.readouterr().err
        assert f"error[target-error]: {flag[0]}" in err
        assert "requires --workers" in err

    def test_non_finite_chaos_resume_rejected(self, capsys, no_pool):
        rc = main(["soak", "--programs", "P4", "--packets", "500",
                   "--workers", "2", "--json",
                   "--chaos", "stop:shard=0@pkt=10@resume=nan"])
        captured = capsys.readouterr()
        assert rc == 4
        assert "bad chaos spec" in json.loads(captured.out)["error"]
        assert no_pool == []


class TestTelemetryCli:
    def test_soak_metrics_out_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "final.json"
        rc = main(["soak", "--programs", "P4", "--packets", "300",
                   "--seed", "7", "--workers", "2",
                   "--metrics-out", str(out), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        snap = json.loads(out.read_text())
        assert snap["schema"] == 1
        assert len(snap["shards"]) == 2
        assert all(s["final"] for s in snap["shards"])
        assert snap["ledger"]["in"] == payload["programs"]["P4"]["packets"]
        assert "switch.latency_us.packet" in snap["latency_us"]

    def test_soak_metrics_out_single_process(self, tmp_path, capsys):
        out = tmp_path / "final.json"
        rc = main(["soak", "--programs", "P4", "--packets", "200",
                   "--seed", "7", "--metrics-out", str(out), "--json"])
        assert rc == 0
        snap = json.loads(out.read_text())
        assert snap["shards"][0]["ledger"]["in"] == 200

    def test_soak_stats_port_serves_while_running(self, tmp_path, capsys):
        # Ephemeral port; the endpoint must at least serve the final
        # rolling view before the CLI tears the server down — mid-run
        # polling is exercised by the CI smoke job with a real subprocess.
        import urllib.request
        from unittest import mock

        from repro.obs import telemetry as telemetry_mod

        polled = {}
        original_close = telemetry_mod.StatsServer.close

        def close_after_poll(self):
            with urllib.request.urlopen(f"{self.url}/stats.json") as resp:
                polled["snap"] = json.loads(resp.read().decode())
            with urllib.request.urlopen(f"{self.url}/metrics") as resp:
                polled["prom"] = resp.read().decode()
            original_close(self)

        with mock.patch.object(
            telemetry_mod.StatsServer, "close", close_after_poll
        ):
            rc = main(["soak", "--programs", "P4", "--packets", "200",
                       "--seed", "7", "--workers", "2",
                       "--stats-port", "0", "--json"])
        assert rc == 0
        assert polled["snap"]["ledger"]["in"] == 200
        assert "repro_switch_packets 200" in polled["prom"]

    def test_soak_busy_stats_port_is_reason_coded(self, capsys):
        # A port someone else holds must surface as a structured CLI
        # error (exit 4), never a raw OSError traceback.
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main(["soak", "--programs", "P4", "--packets", "50",
                       "--seed", "7", "--stats-port", str(port)])
            assert rc == 4
            err = capsys.readouterr().err
            assert "error[stats-port-unavailable]:" in err
            assert str(port) in err
        finally:
            blocker.close()

    def test_soak_busy_stats_port_json_is_structured(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main(["soak", "--programs", "P4", "--packets", "50",
                       "--stats-port", str(port), "--json"])
            captured = capsys.readouterr()
            assert rc == 4
            payload = json.loads(captured.out)
            assert payload["ok"] is False
            assert payload["code"] == "stats-port-unavailable"
            assert payload["exit_code"] == 4
            assert "error[stats-port-unavailable]:" in captured.err
        finally:
            blocker.close()

    def test_soak_trace_out_streams_jsonl(self, tmp_path, capsys):
        path = tmp_path / "traces.jsonl"
        rc = main(["soak", "--programs", "P4", "--packets", "50",
                   "--seed", "7", "--trace-out", str(path), "--json"])
        assert rc == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 50
        assert lines[0]["schema"] == 1
        assert lines[0]["program"] == "P4"
        assert {line["packet"] for line in lines} == set(range(50))
        assert all("events" in line for line in lines)

    def test_soak_trace_out_rejected_with_workers(self, capsys):
        rc = main(["soak", "--programs", "P4", "--packets", "50",
                   "--workers", "2", "--trace-out", "/tmp/x.jsonl"])
        assert rc != 0
        assert "single-process" in capsys.readouterr().err

    def test_soak_telemetry_does_not_change_digest(self, tmp_path, capsys):
        base_args = ["soak", "--programs", "P4", "--packets", "300",
                     "--seed", "7", "--workers", "2", "--json"]
        assert main(base_args) == 0
        plain = json.loads(capsys.readouterr().out)["digest"]
        out = tmp_path / "final.json"
        assert main(base_args + ["--metrics-out", str(out)]) == 0
        live = json.loads(capsys.readouterr().out)["digest"]
        assert plain == live

    def test_stats_reads_snapshot_file(self, tmp_path, capsys):
        out = tmp_path / "final.json"
        assert main(["soak", "--programs", "P4", "--packets", "200",
                     "--seed", "7", "--metrics-out", str(out), "--json"]) == 0
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "telemetry snapshot (schema 1" in text
        assert "P4/shard0" in text
        assert main(["stats", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1

    def test_stats_unreachable_endpoint_fails_cleanly(self, capsys):
        rc = main(["stats", "http://127.0.0.1:1/stats.json",
                   "--timeout", "0.2"])
        assert rc == 1
        assert "stats-unreachable" in capsys.readouterr().err

    def test_profile_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        rc = main(["profile", "P4", "--packets", "200",
                   "--metrics-out", str(out), "--json"])
        assert rc == 0
        snap = json.loads(out.read_text())
        assert snap["shards"][0]["final"] is True
        assert snap["ledger"]["in"] == 200

    def test_profile_trace_out(self, tmp_path, capsys):
        path = tmp_path / "prof.jsonl"
        rc = main(["profile", "P4", "--packets", "30",
                   "--trace-out", str(path), "--json"])
        assert rc == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 30
        assert lines[0]["schema"] == 1
