"""Golden CLI contract for the scenario-matrix registry entries.

For each new experiment, ``run <name> --json -`` must emit a record that
round-trips through ``canonical_json`` bit-identically and carries every
declared parameter — the machine-readable contract scripts rely on.
"""

import json

import pytest

from repro.api import ExperimentResult, get_experiment
from repro.utils.serialization import canonical_json
from repro.__main__ import main
from test_statistical_fidelity import assert_within_ci

#: (experiment, CLI --param overrides) — tiny-scale runs of every
#: scenario-matrix entry, including a non-default browser layout.
GOLDEN_RUNS = [
    ("attack-michael", {"num_harvest": "6", "forge_payload_len": "96"}),
    ("bias-sweep", {"num_keys": "4096", "end": "8"}),
    ("bias-sweep-digraph", {"num_keys": "1024", "end": "4"}),
    (
        "attack-https",
        {
            "browser": "firefox",
            "cookie_len": "2",
            "num_candidates": "4096",
            "max_gap": "32",
        },
    ),
]


def _run_json(capsys, name: str, params: dict[str, str]) -> str:
    argv = ["--seed", "97", "run", name, "--quiet", "--json", "-"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    assert main(argv) == 0
    return capsys.readouterr().out.strip()


@pytest.mark.parametrize("name,params", GOLDEN_RUNS, ids=[r[0] for r in GOLDEN_RUNS])
def test_run_json_round_trips_bit_identically(capsys, name, params):
    text = _run_json(capsys, name, params)
    result = ExperimentResult.from_json(text)
    assert result.experiment == name
    # Bit-identical canonical round-trip, twice over.
    assert result.to_json() == text
    assert canonical_json(json.loads(text)) == text
    assert ExperimentResult.from_json(result.to_json()) == result


@pytest.mark.parametrize("name,params", GOLDEN_RUNS, ids=[r[0] for r in GOLDEN_RUNS])
def test_run_json_carries_declared_params(capsys, name, params):
    text = _run_json(capsys, name, params)
    result = ExperimentResult.from_json(text)
    declared = {param.name for param in get_experiment(name).params}
    assert set(result.params) == declared
    # CLI string overrides arrive coerced to their declared kinds.
    for key, value in params.items():
        resolved = result.params[key]
        assert resolved == (value if isinstance(resolved, str) else int(value))


def test_browser_layouts_shift_cookie_offset(capsys):
    """The browser scenarios genuinely change the keystream layout."""
    spans = {}
    for browser in ("generic", "firefox", "curl"):
        text = _run_json(
            capsys,
            "attack-https",
            {
                "browser": browser,
                "cookie_len": "2",
                "num_candidates": "4096",
                "max_gap": "32",
            },
        )
        result = ExperimentResult.from_json(text)
        assert result.metrics["browser"] == browser
        spans[browser] = tuple(result.metrics["cookie_span"])
    assert len(set(spans.values())) == 3, f"layouts must differ: {spans}"


def _sweep_argv(store, *, as_json=True):
    argv = [
        "--seed", "97", "sweep", "dataset-single",
        "--store", str(store),
        "--grid", "num_keys=4096,16384",
        "--param", "positions=4",
        "--quiet",
    ]
    return argv + ["--json"] if as_json else argv


def test_sweep_golden_rerun_skips_everything(capsys, tmp_path):
    """`sweep` is resumable: the identical rerun recomputes nothing and
    reports the same plan fingerprints as the first pass."""
    store = tmp_path / "runs"
    assert main(_sweep_argv(store)) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["counts"] == {"ran": 2, "skipped": 0, "failed": 0}

    assert main(_sweep_argv(store)) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["counts"] == {"ran": 0, "skipped": 2, "failed": 0}
    assert [o["fingerprint"] for o in second["outcomes"]] == [
        o["fingerprint"] for o in first["outcomes"]
    ]


def test_store_query_json_is_bit_identical_to_the_index(capsys, tmp_path):
    """`store query --json` re-emits exactly what runs.jsonl holds —
    canonical JSON of each record, byte for byte."""
    store = tmp_path / "runs"
    assert main(_sweep_argv(store)) == 0
    capsys.readouterr()

    assert main(["store", "query", str(store), "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    raw_lines = (store / "runs.jsonl").read_text().splitlines()
    assert len(records) == len(raw_lines) == 2
    for record, line in zip(records, raw_lines):
        assert canonical_json(record) == line

    # Param filters narrow by value (JSON-coerced from the CLI string).
    assert main([
        "store", "query", str(store), "--json", "--param", "num_keys=16384",
    ]) == 0
    narrowed = json.loads(capsys.readouterr().out)
    assert [r["result"]["params"]["num_keys"] for r in narrowed] == [16384]


def test_store_report_cells_match_stored_records(capsys, tmp_path):
    """Report cells are canonical JSON of the stored values — every cell
    is a literal substring of the index file."""
    store = tmp_path / "runs"
    assert main(_sweep_argv(store)) == 0
    capsys.readouterr()

    assert main([
        "store", "report", str(store),
        "--experiment", "dataset-single",
        "--metric", "total_counts",
    ]) == 0
    report = capsys.readouterr().out
    raw = (store / "runs.jsonl").read_text()
    for record in (json.loads(line) for line in raw.splitlines()):
        cell = canonical_json(record["result"]["metrics"]["total_counts"])
        assert cell in report
        assert cell in raw
    # The varying grid axis shows up as a column.
    assert "num_keys" in report


def test_bias_sweep_headline_cells_within_ci(capsys):
    """The emitted record's headline counts obey the binomial CI —
    exercising the reusable fidelity helper from another module."""
    text = _run_json(capsys, "bias-sweep", {"num_keys": "65536", "end": "16"})
    result = ExperimentResult.from_json(text)
    num_keys = result.params["num_keys"]
    for cell in result.metrics["headline_cells"]:
        observed = round(cell["measured_probability"] * num_keys)
        assert_within_ci(
            observed,
            num_keys,
            cell["model_probability"],
            z=4.5,
            label=f"Z{cell['position']}={cell['value']:#04x}",
        )
