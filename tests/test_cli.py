"""The ``python -m repro`` command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.api import ExperimentResult, list_experiments


class TestInProcess:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "subsystems" in out

    def test_scale_seed_flags(self, capsys):
        assert main(["--scale", "2.0", "--seed", "42", "info"]) == 0
        assert "scale=2.0 seed=42" in capsys.readouterr().out

    def test_info_prints_registry_inventory_and_real_docs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        # The inventory comes from the live registry, not a hardcoded list.
        for spec in list_experiments():
            assert spec.name in out
        # Only docs that actually exist are advertised.
        assert "README.md" in out and "ROADMAP.md" in out
        assert "DESIGN.md" not in out and "EXPERIMENTS.md" not in out

    def test_info_json(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"]
        assert len(payload["experiments"]) >= 8

    def test_list_enumerates_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        names = [spec.name for spec in list_experiments()]
        assert len(names) >= 8
        for name in names:
            assert name in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == {
            spec.name for spec in list_experiments()
        }

    def test_run_with_params_and_json_stdout(self, capsys):
        assert main([
            "--seed", "5", "run", "dataset-single", "--quiet",
            "--param", "num_keys=2048", "--param", "positions=8",
            "--json", "-",
        ]) == 0
        text = capsys.readouterr().out.strip()
        result = ExperimentResult.from_json(text)
        assert result.experiment == "dataset-single"
        assert result.params == {"num_keys": 2048, "positions": 8}
        assert result.to_json() == text  # bit-identical round-trip

    def test_run_json_stdout_stays_machine_readable_with_progress(self, capsys):
        """Progress goes to stderr, so `--json -` stdout parses as-is."""
        assert main([
            "--seed", "5", "run", "dataset-single",
            "--param", "num_keys=512", "--json", "-",
        ]) == 0
        captured = capsys.readouterr()
        ExperimentResult.from_json(captured.out)  # whole stream is the record
        assert "[dataset-single/" in captured.err  # progress still visible

    def test_run_writes_json_file(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        assert main([
            "--seed", "5", "run", "dataset-single", "--quiet",
            "--param", "num_keys=512", "--json", str(out_path),
        ]) == 0
        result = ExperimentResult.load(out_path)
        assert result.params["num_keys"] == 512

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_unknown_param_fails_cleanly(self, capsys):
        assert main([
            "run", "dataset-single", "--quiet", "--param", "bogus=1",
        ]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "info"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "repro" in result.stdout
