"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_list_shows_configs_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Dy-FUSE" in out
        assert "ATAX" in out
        assert "PolyBench" in out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "L1-SRAM", "2DCONV", "--sms", "2",
                     "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "L1D miss rate" in out

    def test_unknown_config_fails_cleanly(self, capsys):
        code = main(["run", "L1-MAGIC", "2DCONV", "--sms", "2",
                     "--scale", "smoke"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_workload_fails_cleanly(self, capsys):
        code = main(["run", "L1-SRAM", "LINPACK", "--sms", "2",
                     "--scale", "smoke"])
        assert code == 2

    def test_negative_sm_count_fails_cleanly(self, capsys):
        code = main(["run", "L1-SRAM", "ATAX", "--sms", "-2",
                     "--scale", "smoke"])
        assert code == 2
        assert "num_sms must be >= 1" in capsys.readouterr().err


class TestCompare:
    def test_compare_two_configs(self, capsys):
        code = main([
            "compare", "2DCONV", "--configs", "L1-SRAM,Dy-FUSE",
            "--sms", "2", "--scale", "smoke",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "L1-SRAM" in out and "Dy-FUSE" in out
        assert "vs L1-SRAM" in out


class TestSweep:
    def _argv(self, store_path, extra=()):
        return [
            "sweep", "--configs", "L1-SRAM,Dy-FUSE",
            "--workloads", "2DCONV,ATAX", "--workers", "2",
            "--store", str(store_path), "--sms", "2", "--scale", "smoke",
            "--quiet", *extra,
        ]

    def test_parallel_sweep_then_store_replay(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        assert main(self._argv(store)) == 0
        out = capsys.readouterr().out
        assert "4 runs: 0 from store, 4 fresh, 0 failed" in out
        # second invocation of the same matrix: zero fresh simulations
        assert main(self._argv(store)) == 0
        out = capsys.readouterr().out
        assert "4 runs: 4 from store, 0 fresh, 0 failed" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        assert main(self._argv(tmp_path / "s.jsonl", ["--json"])) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fresh"] == 4 and payload["errors"] == 0
        runs = {(r["config"], r["workload"]) for r in payload["runs"]}
        assert ("Dy-FUSE", "ATAX") in runs
        for run in payload["runs"]:
            assert run["result"]["cycles"] > 0

    def test_failed_run_reported_not_fatal(self, tmp_path, capsys):
        code = main([
            "sweep", "--configs", "L1-SRAM", "--workloads", "2DCONV,NOPE",
            "--workers", "2", "--no-store", "--sms", "2",
            "--scale", "smoke", "--quiet",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "unknown benchmark" in captured.err

    def test_zero_sm_count_fails_and_stores_nothing(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        code = main([
            "sweep", "--configs", "L1-SRAM", "--workloads", "ATAX",
            "--store", str(store), "--sms", "0", "--scale", "smoke",
            "--quiet",
        ])
        assert code == 2
        assert "num_sms must be >= 1" in capsys.readouterr().err
        assert not store.exists() or store.read_text() == ""

    def test_unknown_config_fails_cleanly(self, capsys):
        code = main([
            "sweep", "--configs", "L1-MAGIC", "--workloads", "2DCONV",
            "--no-store", "--sms", "2", "--scale", "smoke", "--quiet",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_suite_name_expands_to_members(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        argv = [
            "sweep", "--configs", "L1-SRAM", "--workloads", "DNN",
            "--workers", "2", "--store", str(store), "--sms", "2",
            "--scale", "smoke", "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out and "gemm-tile" in out and "attention" in out
        assert "3 runs: 0 from store, 3 fresh, 0 failed" in out
        # repeat completes from the persistent store
        assert main(argv) == 0
        assert "3 runs: 3 from store, 0 fresh" in capsys.readouterr().out

    def test_overlapping_workload_tokens_deduplicate(self, capsys):
        # "DNN,attention" names attention twice; it must run/report once
        assert main([
            "sweep", "--configs", "L1-SRAM", "--workloads",
            "DNN,attention", "--no-store", "--sms", "2",
            "--scale", "smoke", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 runs:" in out
        assert out.count("attention") == 1

    def test_empty_store_path_disables_persistence(self, capsys):
        # --store "" mirrors REPRO_STORE="": no store, nothing written
        code = main([
            "sweep", "--configs", "L1-SRAM", "--workloads", "2DCONV",
            "--store", "", "--sms", "2", "--scale", "smoke", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(store:" not in out
        assert "1 fresh" in out


class TestStoreCommand:
    def _fill(self, store_path):
        assert main([
            "sweep", "--configs", "L1-SRAM", "--workloads", "2DCONV",
            "--workers", "1", "--store", str(store_path), "--sms", "2",
            "--scale", "smoke", "--quiet",
        ]) == 0

    def test_info_reports_records_and_size(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        self._fill(store)
        capsys.readouterr()
        assert main(["store", "info", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert str(store) in out
        assert "records" in out and "schema_version" in out

    def test_compact_drops_superseded_records(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        self._fill(store)
        # duplicate every line: superseded records compact away
        store.write_text(store.read_text() * 2)
        capsys.readouterr()
        assert main(["store", "compact", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 live records" in out
        assert "1 dropped" in out
        assert len(store.read_text().splitlines()) == 1

    def test_path_prints_resolved_path(self, tmp_path, capsys):
        assert main(["store", "path", "--store", str(tmp_path / "s.jsonl")]
                    ) == 0
        assert str(tmp_path / "s.jsonl") in capsys.readouterr().out

    def test_disabled_store_fails_cleanly(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", "")
        assert main(["store", "info"]) == 2
        assert "no store configured" in capsys.readouterr().err


class TestSubmitCommand:
    def test_submit_against_live_service(self, tmp_path, capsys):
        from repro.service import BackgroundService

        with BackgroundService(
            store_path=tmp_path / "store.jsonl", workers=1
        ) as svc:
            argv = [
                "submit", "--url", svc.url, "--configs", "L1-SRAM,Dy-FUSE",
                "--workloads", "ATAX", "--sms", "2", "--scale", "smoke",
                "--quiet",
            ]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "2 runs: 0 from store, 2 fresh" in out
            # warm resubmission completes entirely from the store
            assert main(argv + ["--json"]) == 0
            import json

            payload = json.loads(capsys.readouterr().out)
            assert payload["store_hits"] == payload["total"] == 2
            assert payload["fresh"] == 0

    def test_submit_unreachable_service_fails_cleanly(self, capsys):
        code = main([
            "submit", "--url", "http://127.0.0.1:9", "--configs",
            "L1-SRAM", "--workloads", "ATAX", "--sms", "2",
            "--scale", "smoke", "--quiet",
        ])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestServeCommand:
    def test_retired_active_flag_is_a_usage_error(self, capsys):
        """Jobs start on submit, so there is no concurrent-job bound to
        set: ``--active`` is an unknown option."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--active", "2"])
        assert exit_info.value.code == 2
        assert "--active" in capsys.readouterr().err
