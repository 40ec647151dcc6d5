"""Structural dry-run of .github/workflows/ci.yml.

`act` is not available in the offline environment, so this is the
equivalent gate: parse the workflow and assert the properties the repo
relies on — the REPRO_NATIVE matrix, `make verify`, the compile cache
keyed on the hashes of _native.c and _native.py (whose ``_CFLAGS`` the
build depends on), the thread-determinism matrix, the lint job,
and the soft-fail regression step.  A workflow edit that breaks any of
these fails the tier-1 suite locally instead of failing silently on the
first push.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = (
    Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"
)


@pytest.fixture(scope="module")
def workflow():
    data = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(data, dict), "ci.yml did not parse to a mapping"
    return data


def _steps(job: dict) -> list[dict]:
    steps = job.get("steps")
    assert isinstance(steps, list) and steps, "job has no steps"
    return steps


def _run_lines(job: dict) -> str:
    return "\n".join(s.get("run", "") for s in _steps(job))


def test_workflow_exists_and_triggers(workflow):
    # pyyaml parses the bare key `on:` as boolean True (YAML 1.1).
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert "push" in triggers


def test_verify_job_runs_make_verify_in_both_native_modes(workflow):
    job = workflow["jobs"]["verify"]
    matrix = job["strategy"]["matrix"]
    assert sorted(matrix["native"]) == ["0", "1"]
    assert job["env"]["REPRO_NATIVE"] == "${{ matrix.native }}"
    assert "make verify" in _run_lines(job)


def test_verify_job_covers_simd_dispatch_leg(workflow):
    """The verify matrix must run the compiled backend with the AVX2 tier
    both enabled and disabled (REPRO_NATIVE_SIMD={0,1}), so the scalar
    tier below the SIMD dispatch stays exercised even on SIMD-capable
    runners.  The knob is meaningless on the numpy leg, so that
    combination is excluded rather than run twice."""
    job = workflow["jobs"]["verify"]
    matrix = job["strategy"]["matrix"]
    assert sorted(matrix["simd"]) == ["0", "1"]
    assert {"native": "0", "simd": "0"} in matrix.get("exclude", [])
    assert job["env"]["REPRO_NATIVE_SIMD"] == "${{ matrix.simd }}"


def test_verify_job_caches_native_build_keyed_on_source_hash(workflow):
    """Both jobs that build the backend cache it under a key that
    changes with the C source and with the compiler flags, which
    ``_CFLAGS`` in ``_native.py`` holds."""
    for name in ("verify", "thread-determinism"):
        job = workflow["jobs"][name]
        cache_steps = [
            s for s in _steps(job) if "actions/cache" in str(s.get("uses", ""))
        ]
        assert cache_steps, f"{name} job must cache ~/.cache/repro-rc4"
        cache = cache_steps[0]["with"]
        assert "repro-rc4" in cache["path"]
        assert (
            "hashFiles('src/repro/rc4/_native.c', 'src/repro/rc4/_native.py')"
            in cache["key"]
        ), name


def test_verify_job_smokes_the_experiment_api(workflow):
    """CI must exercise the registry CLI: list + a tiny run --json."""
    runs = _run_lines(workflow["jobs"]["verify"])
    assert "python -m repro list" in runs
    assert "python -m repro" in runs and " run " in runs
    assert "--json" in runs
    assert "ExperimentResult" in runs, "the emitted JSON must be validated"


def test_verify_job_smokes_the_scenario_matrix(workflow):
    """CI must run every scenario-matrix registry entry at tiny scale on
    both legs of the REPRO_NATIVE matrix (the step lives inside the
    matrixed verify job), validating each emitted record."""
    job = workflow["jobs"]["verify"]
    assert sorted(job["strategy"]["matrix"]["native"]) == ["0", "1"]
    runs = _run_lines(job)
    for experiment in ("attack-michael", "bias-sweep", "bias-sweep-digraph"):
        assert experiment in runs, f"scenario smoke must run {experiment}"
    assert "browser=firefox" in runs, "a non-default browser layout must run"
    scenario_steps = [
        s for s in _steps(job) if "attack-michael" in s.get("run", "")
    ]
    assert "ExperimentResult" in scenario_steps[0]["run"], (
        "scenario smoke must validate the emitted JSON records"
    )


def test_verify_job_smokes_capture_equivalence_on_both_native_legs(workflow):
    """The capture-engine equivalence suite must run inside the matrixed
    verify job, so both REPRO_NATIVE={0,1} legs assert the batched
    capture == per-request reference bit-exactness."""
    job = workflow["jobs"]["verify"]
    assert sorted(job["strategy"]["matrix"]["native"]) == ["0", "1"]
    runs = _run_lines(job)
    assert "test_capture_equivalence" in runs, (
        "verify job must smoke tests/test_capture_equivalence.py"
    )


def test_verify_job_smokes_crash_consistency_on_both_native_legs(workflow):
    """The crash-consistency suite (capture and campaign SIGKILL
    mid-run, torn and foreign checkpoints, fsync ordering, each resume
    diffed against the uninterrupted run) must run inside the matrixed
    verify job so both REPRO_NATIVE legs assert crash-recovery
    exactness."""
    job = workflow["jobs"]["verify"]
    assert sorted(job["strategy"]["matrix"]["native"]) == ["0", "1"]
    runs = _run_lines(job)
    assert "test_crash_consistency" in runs, (
        "verify job must smoke tests/test_crash_consistency.py"
    )


def test_verify_job_smokes_warehouse_sweep_and_docs_consistency(workflow):
    """The verify job must sweep into a store, prove the rerun skips
    everything (crash-tolerant resume), report from stored runs, and run
    the warehouse + docs-consistency suites on both REPRO_NATIVE legs."""
    job = workflow["jobs"]["verify"]
    assert sorted(job["strategy"]["matrix"]["native"]) == ["0", "1"]
    runs = _run_lines(job)
    assert "python -m repro" in runs and " sweep " in runs
    assert "store report" in runs
    assert "'skipped': 2" in runs, (
        "the second sweep must assert everything was skipped (resume path)"
    )
    assert "test_warehouse" in runs
    assert "test_docs_consistency" in runs, (
        "docs-consistency must gate the verify job"
    )


def test_verify_job_smokes_the_campaign_simulator(workflow):
    """The verify job must run a tiny heterogeneous campaign-https
    population through the shared-keystream victim-set path on both
    REPRO_NATIVE legs: --json round-trip, a warehouse append, and the
    campaign test suite; and a tiny campaign-tkip run whose groups
    include a victim set, with its own --json round-trip."""
    job = workflow["jobs"]["verify"]
    assert sorted(job["strategy"]["matrix"]["native"]) == ["0", "1"]
    runs = _run_lines(job)
    assert "campaign-https" in runs, "verify job must smoke campaign-https"
    assert "population=4" in runs, "the smoke population must stay tiny"
    campaign_steps = [
        s for s in _steps(job) if "campaign-https" in s.get("run", "")
    ]
    step = campaign_steps[0]["run"]
    assert "ExperimentResult" in step, (
        "campaign smoke must validate the emitted JSON record"
    )
    assert "--store" in step and "RunStore" in step, (
        "campaign smoke must append to a warehouse store and query it back"
    )
    assert "test_campaign" in runs, (
        "verify job must run tests/test_campaign.py"
    )
    tkip_steps = [
        s for s in _steps(job) if "campaign-tkip" in s.get("run", "")
    ]
    assert tkip_steps, "verify job must smoke campaign-tkip"
    step = tkip_steps[0]["run"]
    assert "population=4" in step and "group_size=2" in step, (
        "the TKIP smoke must stay tiny and group victims into sets"
    )
    assert "campaign-tkip-smoke.json" in step and "from_json" in step, (
        "the TKIP smoke must round-trip its --json record"
    )


def test_verify_job_smokes_recovery_at_scale(workflow):
    """The verify job must run the candidate-recovery engine at a
    paper-scale list size (attack-https with num_candidates=65536) on
    both REPRO_NATIVE legs, plus the ordering spot-check that rescores
    recovered paths against the transition likelihoods."""
    job = workflow["jobs"]["verify"]
    assert sorted(job["strategy"]["matrix"]["native"]) == ["0", "1"]
    runs = _run_lines(job)
    recovery_steps = [
        s for s in _steps(job) if "num_candidates=65536" in s.get("run", "")
    ]
    assert recovery_steps, (
        "verify job must smoke attack-https at num_candidates=65536"
    )
    step = recovery_steps[0]["run"]
    assert "attack-https" in step
    assert "spot_check_recovery" in runs, (
        "verify job must run tests/spot_check_recovery.py"
    )
    assert (
        Path(__file__).resolve().parent / "spot_check_recovery.py"
    ).exists(), "CI references tests/spot_check_recovery.py"


def test_verify_job_runs_the_capture_benchmark_self_test(workflow):
    """Every verify leg runs one traced perfbench pass of each workload
    (https-recover, https-capture and tkip-search) and fails unless each
    last line reports correct outputs and no failed repetition, so a
    change that breaks the benchmark's checks or self-tests fails CI
    (https-recover's check reads Algorithm 2's candidate matrix through
    the ``repro.tls.attack.algorithm2`` entry point)."""
    job = workflow["jobs"]["verify"]
    assert sorted(job["strategy"]["matrix"]["native"]) == ["0", "1"]
    steps = [
        s for s in _steps(job) if "perfbench/run.py" in s.get("run", "")
    ]
    assert len(steps) == 1, "verify job must run perfbench in one step"
    step = steps[0]
    assert not step.get("continue-on-error"), "the step must gate the job"
    command = " ".join(step["run"].replace("\\\n", " ").split())
    assert (
        "for workload in https-recover https-capture tkip-search; do"
        in command
    )
    assert (
        'python3 perfbench/run.py --workload "$workload" --seed 1 '
        "--seconds 0 --trace 1" in command
    )
    assert "pipefail" in command, "a crashed run must fail the step"
    assert "tail -n 1" in command, "the summary is the last line"
    assert "r['correct'] is True" in command
    assert "r['failed'] == 0" in command


def test_verify_job_has_soft_fail_regression_step(workflow):
    job = workflow["jobs"]["verify"]
    check_steps = [
        s for s in _steps(job) if "--check" in s.get("run", "")
    ]
    assert check_steps, "verify job must run the --check regression gate"
    assert all(
        s.get("continue-on-error") is True for s in check_steps
    ), "regression gate must be soft-fail in CI"
    assert "--tolerance" in check_steps[0]["run"]


def test_thread_determinism_job_covers_one_and_default(workflow):
    job = workflow["jobs"]["thread-determinism"]
    matrix = job["strategy"]["matrix"]
    assert "1" in matrix["threads"], "must pin REPRO_NATIVE_THREADS=1"
    assert "default" in matrix["threads"], "must also run the default"
    # More workers than a runner's cores: helpers start late and take
    # fewer of the native fan-out's work-sharing units.
    assert "5" in matrix["threads"], "must oversubscribe the runner's cores"
    runs = _run_lines(job)
    assert "REPRO_NATIVE_THREADS" in runs
    assert "test_dataset_equivalence" in runs
    # The threaded capture kernel splits counter rows across threads.
    assert "tests/test_capture_equivalence.py" in runs
    assert "tests/test_campaign.py" in runs
    # The candidate suite holds the native §5 walk to its heapq fallback,
    # and the HTTPS suite runs Algorithm 2 on the threaded sampler's rows.
    assert "tests/test_candidate_equivalence.py" in runs
    assert "tests/test_tls_attack.py" in runs
    # And the §6 statistic sampler's multinomial rows.
    assert "tests/test_simulate.py" in runs
    # The threaded per-TSC counting and keystream feed the §5 CRC walk.
    assert "tests/test_tkip_attack.py" in runs
    assert "tests/test_tkip_pertsc_injection.py" in runs


def test_lint_job_runs_ruff(workflow):
    job = workflow["jobs"]["lint"]
    runs = _run_lines(job)
    assert "ruff" in runs
    assert "make lint" in runs


def test_ruff_config_exists():
    root = WORKFLOW.parent.parent.parent
    assert (root / "ruff.toml").exists()


def test_bench_baseline_referenced_by_ci_is_committed(workflow):
    """The --check step must point at a file that actually exists."""
    job = workflow["jobs"]["verify"]
    runs = _run_lines(job)
    for token in runs.split():
        if token.startswith("benchmarks/BENCH_"):
            root = WORKFLOW.parent.parent.parent
            assert (root / token).exists(), f"CI references missing {token}"
            break
    else:
        pytest.fail("no BENCH baseline referenced in verify job")
