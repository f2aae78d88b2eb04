"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_devices_listing(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in ("fdc", "pcnet", "ehci", "sdhci", "scsi"):
            assert name in out
        assert "CVE-2015-3456" in out

    def test_devices_active_at_old_version(self, capsys):
        main(["devices", "--qemu-version", "2.3.0"])
        out = capsys.readouterr().out
        assert "CVE-2015-3456" in out

    def test_train_writes_spec(self, tmp_path, capsys):
        out_file = tmp_path / "fdc.spec.json"
        assert main(["train", "--device", "fdc",
                     "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["device"] == "FDCtrl"
        assert "execution specification" in capsys.readouterr().out

    def test_inspect_and_dot(self, tmp_path, capsys):
        spec_file = tmp_path / "s.json"
        main(["train", "--device", "sdhci", "--out", str(spec_file)])
        capsys.readouterr()
        dot_file = tmp_path / "s.dot"
        assert main(["inspect", "--spec", str(spec_file),
                     "--dot", str(dot_file)]) == 0
        assert dot_file.read_text().startswith("digraph")

    def test_exploit_unprotected(self, capsys):
        assert main(["exploit", "--cve", "CVE-2021-3409"]) == 0
        out = capsys.readouterr().out
        assert "detected:  False" in out

    def test_exploit_protected(self, capsys):
        assert main(["exploit", "--cve", "CVE-2021-3409",
                     "--protect"]) == 0
        out = capsys.readouterr().out
        assert "detected:  True" in out
        assert "parameter" in out

    def test_exploit_reference_backend(self, capsys):
        assert main(["exploit", "--cve", "CVE-2021-3409", "--protect",
                     "--backend", "reference"]) == 0
        assert "detected:  True" in capsys.readouterr().out

    def test_train_reference_backend(self, tmp_path, capsys):
        out_file = tmp_path / "fdc.spec.json"
        assert main(["train", "--device", "fdc", "--backend",
                     "reference", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["device"] == "FDCtrl"

    def test_tables_1(self, capsys):
        assert main(["tables", "--which", "1"]) == 0
        assert "Variable category" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["exploit", "--cve", "CVE-2021-3409", "--backend", "compiled"],
        ["corpus", "--backends", "reference,compiled"],
        ["migrate", "--backends", ","],
    ])
    def test_unknown_backend_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "reference" in capsys.readouterr().err


class TestServe:
    def test_serve_inline_benign(self, capsys):
        assert main(["serve", "--inline", "--devices", "fdc",
                     "--tenants", "2", "--batches", "2",
                     "--ops", "2"]) == 0
        out = capsys.readouterr().out
        assert "Tenant" in out
        assert "0 lost" in out

    def test_serve_inline_detects_injected_cve(self, capsys):
        assert main(["serve", "--inline", "--devices", "fdc",
                     "--tenants", "2", "--batches", "3", "--ops", "2",
                     "--inject", "CVE-2015-3456",
                     "--min-detections", "1"]) == 0
        out = capsys.readouterr().out
        assert "detections=1" in out

    def test_serve_min_detections_enforced(self, capsys):
        assert main(["serve", "--inline", "--devices", "fdc",
                     "--tenants", "1", "--batches", "1", "--ops", "1",
                     "--min-detections", "1"]) == 1
        assert "ERROR" in capsys.readouterr().out


class TestChaos:
    def test_negative_max_retries_is_a_policy_error(self, capsys):
        # Validated as a TenantPolicy before anything trains or runs.
        assert main(["chaos", "--seeds", "101", "--devices", "fdc",
                     "--max-retries", "-1"]) == 2
        assert "max_retries" in capsys.readouterr().err


class TestPolicy:
    @pytest.mark.parametrize("command", [
        ["policy", "show"],
        ["policy", "apply", "--cache", "{cache}"],
        ["policy", "reload", "--inline", "--devices", "fdc"],
    ], ids=["show", "apply", "reload"])
    def test_malformed_document_exits_2(self, command, tmp_path, capsys):
        # 2 is a rejected document on every policy command; reload
        # keeps 1 for a run that lost traffic.
        document = tmp_path / "policy.json"
        document.write_text(json.dumps(
            {"default": {"circuit_cooldown": 0}}))
        argv = [arg.format(cache=tmp_path / "cache") for arg in command]
        assert main(argv + ["--file", str(document)]) == 2
        assert "circuit_cooldown" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


class TestStats:
    def test_stats_prints_strategy_and_latency_tables(self, tmp_path,
                                                      capsys):
        jsonl = tmp_path / "stats.jsonl"
        prom = tmp_path / "stats.prom"
        assert main(["stats", "--device", "fdc", "--rounds", "40",
                     "--json-out", str(jsonl),
                     "--prom-out", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "checked I/O rounds" in out
        for strategy in ("parameter", "indirect_jump",
                         "conditional_jump"):
            assert strategy in out
        assert "checker.round_ns" in out
        assert "blocks executed" in out
        # Both exporters produced parseable, non-empty files.
        lines = jsonl.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["name"] for line in lines)
        assert "# TYPE checker_checks counter" in prom.read_text()

    def test_stats_reference_backend(self, capsys):
        assert main(["stats", "--device", "fdc", "--rounds", "20",
                     "--backend", "reference"]) == 0
        assert "backend reference" in capsys.readouterr().out


class TestSpecDiff:
    def test_diff_and_merge(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        merged = tmp_path / "m.json"
        main(["train", "--device", "sdhci", "--seed", "1",
              "--repeats", "1", "--out", str(a)])
        main(["train", "--device", "sdhci", "--seed", "2",
              "--repeats", "2", "--out", str(b)])
        capsys.readouterr()
        assert main(["spec-diff", "--base", str(a), "--other", str(b),
                     "--out", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "coverage gain" in out
        assert merged.exists()
