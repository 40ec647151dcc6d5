"""The unified experiment API: registry, Session facade, result format.

Every registered experiment must run end to end at tiny scale and
produce an :class:`ExperimentResult` whose canonical JSON round-trips
bit-identically — that is the CLI's ``run --json`` contract.  Unknown
experiment names and parameters must fail with typed
:class:`ReproError` subclasses, never bare KeyErrors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ExperimentResult,
    Param,
    Session,
    get_experiment,
    list_experiments,
)
from repro.config import ReproConfig
from repro.datasets import DatasetSpec, load_dataset
from repro.errors import (
    DatasetError,
    ExperimentError,
    ExperimentParamError,
    ReproError,
    UnknownExperimentError,
)

#: Tiny-scale overrides: every registered experiment MUST have an entry
#: (the inventory test enforces it), so nothing ships unrunnable.
TINY_OVERRIDES = {
    "dataset-single": dict(num_keys=2048, positions=8),
    "dataset-consec": dict(num_keys=1024, positions=4),
    "dataset-pairs": dict(num_keys=1024),
    "dataset-equality": dict(num_keys=1024),
    "dataset-longterm": dict(num_keys=8, stream_len=2048),
    "bias-hunt": dict(num_keys=8192, positions=16),
    "recovery-broadcast": dict(num_ciphertexts=8192),
    "absab-gap": dict(num_keys=8, stream_len=4096, gaps=(0, 8)),
    "attack-tkip": dict(
        num_tsc=4, keys_per_tsc=1 << 10, packets_per_tsc=1 << 10,
        max_candidates=1 << 16,
    ),
    "attack-https": dict(cookie_len=2, num_candidates=1 << 12, max_gap=32),
    "attack-michael": dict(num_harvest=6, forge_payload_len=96),
    "bias-sweep": dict(num_keys=4096, end=8),
    "bias-sweep-digraph": dict(num_keys=1024, end=4),
    "bias-sweep-pertsc": dict(num_tsc=2, packets_per_tsc=512, end=8),
    "campaign-https": dict(
        population=4, num_requests=512, num_candidates=64, group_size=2,
    ),
    "campaign-tkip": dict(
        population=3, num_tsc=2, keys_per_tsc=256, budgets=(64, 128),
        max_candidates=64, group_size=2,
    ),
}


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(ReproConfig(scale=0.25, seed=4321))


def test_registry_inventory_is_covered():
    names = {spec.name for spec in list_experiments()}
    assert names == set(TINY_OVERRIDES), (
        "every registered experiment needs a tiny-scale override entry "
        "(and every entry a registration)"
    )
    assert len(names) >= 13


@pytest.mark.parametrize("name", sorted(TINY_OVERRIDES))
def test_experiment_runs_and_roundtrips(session, name):
    result = session.run(name, **TINY_OVERRIDES[name])
    assert result.experiment == name
    assert result.metrics, "experiments must report metrics"
    assert result.timings["total"] > 0
    assert result.provenance["seed"] == 4321
    # Overrides land in the resolved params verbatim.
    for key, value in TINY_OVERRIDES[name].items():
        resolved = result.params[key]
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
            resolved = [list(v) if isinstance(v, tuple) else v for v in resolved]
        assert resolved == value
    # The machine-readable contract: canonical JSON round-trips
    # bit-identically and reconstructs an equal record.
    text = result.to_json()
    restored = ExperimentResult.from_json(text)
    assert restored.to_json() == text
    assert restored == ExperimentResult.from_json(restored.to_json())


def test_attacks_succeed_at_tiny_scale(session):
    tkip = session.run("attack-tkip", **TINY_OVERRIDES["attack-tkip"])
    assert tkip.metrics["correct"] is True
    assert tkip.metrics["forged"]["accepted"] is True
    https = session.run("attack-https", **TINY_OVERRIDES["attack-https"])
    assert https.metrics["rank"] >= 0
    assert len(https.metrics["cookie"]) == 2
    michael = session.run("attack-michael", **TINY_OVERRIDES["attack-michael"])
    assert michael.metrics["key_correct"] is True
    assert michael.metrics["accepted"] is True
    assert michael.metrics["fragments_used"] >= 2


def test_attack_https_browser_scenarios(session):
    """Every browser layout runs, shifts the cookie offset, and keeps
    the recovery working; unknown browsers fail with a typed error."""
    spans = {}
    for browser in ("generic", "firefox", "curl"):
        result = session.run(
            "attack-https", browser=browser, **TINY_OVERRIDES["attack-https"]
        )
        assert result.metrics["browser"] == browser
        assert len(result.metrics["cookie"]) == 2
        spans[browser] = tuple(result.metrics["cookie_span"])
    assert len(set(spans.values())) == 3
    with pytest.raises(ExperimentParamError, match="browser must be"):
        session.run(
            "attack-https", browser="netscape", **TINY_OVERRIDES["attack-https"]
        )


def test_bias_sweep_range_validation(session):
    with pytest.raises(ExperimentParamError, match="start <= end"):
        session.run("bias-sweep", num_keys=256, start=9, end=8)
    with pytest.raises(ExperimentParamError, match="start <= end"):
        session.run("bias-sweep-digraph", num_keys=256, start=0, end=4)


def test_unknown_experiment_raises_typed_error(session):
    with pytest.raises(UnknownExperimentError, match="unknown experiment"):
        session.run("no-such-experiment")
    with pytest.raises(ReproError):  # the subclass relationship callers use
        get_experiment("also-missing")


def test_unknown_param_raises_typed_error(session):
    with pytest.raises(ExperimentParamError, match="no parameter"):
        session.run("dataset-single", num_keys=64, bogus=1)
    assert issubclass(ExperimentParamError, ReproError)


def test_ill_typed_param_raises_typed_error(session):
    with pytest.raises(ExperimentParamError, match="expects int"):
        session.run("dataset-single", num_keys="not-a-number")
    with pytest.raises(ExperimentParamError, match="expects pairs"):
        session.run("dataset-pairs", num_keys=64, pairs="15:16:17")


def test_out_of_range_values_raise_typed_errors(session):
    """Range failures must be ReproError subclasses, not raw tracebacks."""
    with pytest.raises(ExperimentParamError, match="positions must be"):
        session.run("recovery-broadcast", num_ciphertexts=64, positions=1)
    with pytest.raises(ExperimentParamError, match="secret_byte must be"):
        session.run("recovery-broadcast", num_ciphertexts=64, secret_byte=999)
    with pytest.raises(ExperimentParamError, match="gaps must be"):
        session.run("absab-gap", num_keys=4, stream_len=64, gaps=(100,))
    with pytest.raises(ExperimentParamError, match="gaps must be"):
        session.run("absab-gap", num_keys=4, stream_len=64, gaps=(-2,))


def test_canonical_json_rejects_nan():
    from repro.utils.serialization import canonical_json

    with pytest.raises(ValueError):
        canonical_json({"metric": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"metric": float("inf")})


def test_param_cli_string_coercion():
    spec = get_experiment("dataset-pairs")
    params = spec.resolve_params(
        ReproConfig(), {"num_keys": "512", "pairs": "15:16,31:32"}
    )
    assert params["num_keys"] == 512
    assert params["pairs"] == ((15, 16), (31, 32))


def test_scale_aware_defaults():
    spec = get_experiment("dataset-single")
    small = spec.resolve_params(ReproConfig(scale=0.25), {})
    large = spec.resolve_params(ReproConfig(scale=4.0), {})
    assert small["num_keys"] == (1 << 17) // 4
    assert large["num_keys"] == (1 << 17) * 4


def test_param_rejects_unknown_kind():
    with pytest.raises(ExperimentError, match="unknown kind"):
        Param("x", kind="complex")


def test_result_format_version_is_checked():
    result = ExperimentResult(experiment="x", metrics={"ok": 1})
    payload = result.to_dict()
    payload["format_version"] = 99
    with pytest.raises(ExperimentError, match="format version"):
        ExperimentResult.from_dict(payload)
    with pytest.raises(ExperimentError, match="malformed"):
        ExperimentResult.from_json("{nope")


def test_result_save_load_roundtrip(tmp_path):
    result = ExperimentResult(
        experiment="x",
        params={"n": 1},
        metrics={"value": 0.5, "items": [1, 2]},
        timings={"total": 0.01},
        provenance={"seed": 1},
    )
    path = result.save(tmp_path / "result.json")
    assert ExperimentResult.load(path) == result


def test_session_progress_events(session):
    events = []
    local = Session(session.config, progress=events.append)
    local.run("dataset-single", num_keys=256, positions=4)
    assert events, "experiments must emit progress"
    assert events[0].experiment == "dataset-single"
    assert events[0].stage == "generate"


def test_session_memory_cache_reuses_counters(session):
    local = Session(ReproConfig(seed=99))
    spec = DatasetSpec(kind="single", num_keys=512, positions=4, label="cache-t")
    first = local.dataset(spec)
    second = local.dataset(spec)
    assert first is second  # in-memory hit
    assert not first.flags.writeable  # cached counters are read-only


def test_session_disk_cache_roundtrip(tmp_path):
    config = ReproConfig(seed=77)
    spec = DatasetSpec(kind="single", num_keys=512, positions=4, label="disk-t")
    counts = Session(config, cache_dir=tmp_path).dataset(spec)
    files = list(tmp_path.glob("*.npz"))
    assert len(files) == 1
    # A fresh session loads the cached counters instead of regenerating.
    again = Session(config, cache_dir=tmp_path).dataset(spec)
    assert np.array_equal(counts, again)
    # A different seed must not share the entry.
    Session(ReproConfig(seed=78), cache_dir=tmp_path).dataset(spec)
    assert len(list(tmp_path.glob("*.npz"))) == 2


def test_session_regenerates_torn_cache_entry(tmp_path):
    config = ReproConfig(seed=77)
    spec = DatasetSpec(kind="single", num_keys=512, positions=4, label="torn-t")
    counts = Session(config, cache_dir=tmp_path).dataset(spec)
    (path,) = tmp_path.glob("*.npz")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(DatasetError, match=path.name):
        load_dataset(path)
    with pytest.warns(RuntimeWarning, match="regenerating"):
        again = Session(config, cache_dir=tmp_path).dataset(spec)
    assert np.array_equal(counts, again)
    # The torn entry was overwritten with the regenerated counters.
    loaded, _ = load_dataset(path, expected_spec=spec)
    assert np.array_equal(loaded, counts)


def test_no_env_reads_outside_config():
    """Acceptance gate: REPRO_* env access is centralised in config.py."""
    import pathlib

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for path in src.rglob("*.py"):
        if path.name == "config.py":
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            accesses = ("environ.get(", "environ[", "getenv(")
            if any(access in line for access in accesses) and "REPRO_" in line:
                offenders.append(f"{path.relative_to(src)}:{i}")
    assert not offenders, f"direct REPRO_* env reads: {offenders}"
