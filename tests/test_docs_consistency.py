"""Docs-consistency: the atlas and README cannot drift from the registry.

Registry-derived inventories (the same pattern as
``test_examples_smoke.py``): every registered experiment must appear in
``docs/experiment-atlas.md`` and in README's scenario-matrix table, every
CLI invocation the atlas prints must name a real experiment with real
parameters, and every benchmark file the atlas cites must exist.  Runs on
the ordinary verify job, so a registry edit without a docs edit fails CI.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.api import get_experiment, list_experiments

REPO_ROOT = Path(__file__).resolve().parent.parent
ATLAS = REPO_ROOT / "docs" / "experiment-atlas.md"
ARCHITECTURE = REPO_ROOT / "docs" / "architecture.md"
README = REPO_ROOT / "README.md"

EXPERIMENTS = [spec.name for spec in list_experiments()]


def _mentions(name: str, text: str) -> bool:
    """Whole-name match: 'bias-sweep' is not satisfied by
    'bias-sweep-digraph' (same idiom as test_examples_smoke)."""
    return re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text) is not None


def _scenario_matrix(readme: str) -> str:
    """The scenario-matrix table section of README."""
    match = re.search(r"### Scenario matrix\n(.*?)\n## ", readme, re.DOTALL)
    assert match, "README lost its '### Scenario matrix' section"
    return match.group(1)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_experiment_in_atlas(name):
    assert _mentions(name, ATLAS.read_text()), (
        f"registered experiment {name!r} is missing from {ATLAS.name}; "
        "add it to the atlas (figure mapping or the beyond-figures table)"
    )


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_experiment_in_readme_matrix(name):
    assert _mentions(name, _scenario_matrix(README.read_text())), (
        f"registered experiment {name!r} is missing from README's "
        "scenario-matrix table"
    )


def test_readme_matrix_lists_every_declared_param():
    """Each experiment's row (the matrix line naming it in a code span)
    must mention every declared parameter — the drift this PR fixed."""
    matrix = _scenario_matrix(README.read_text())
    rows = [line for line in matrix.splitlines() if line.startswith("|")]
    for spec in list_experiments():
        own_rows = [r for r in rows if _mentions(spec.name, r)]
        assert own_rows, f"no matrix row names {spec.name!r}"
        missing = [
            param.name
            for param in spec.params
            if not any(_mentions(param.name, row) for row in own_rows)
        ]
        assert not missing, (
            f"README matrix row for {spec.name!r} omits declared "
            f"param(s) {missing}"
        )


def test_atlas_cli_invocations_are_valid():
    """Every `python -m repro run <name> --param k=v` the atlas prints
    must resolve against the live registry."""
    text = ATLAS.read_text()
    commands = re.findall(
        r"python -m repro run ([\w-]+)((?: --param [\w-]+=[^\s`|]+)*)", text
    )
    assert commands, "atlas has no run invocations to validate"
    for name, params_blob in commands:
        spec = get_experiment(name)  # raises UnknownExperimentError on drift
        declared = {param.name for param in spec.params}
        used = set(re.findall(r"--param ([\w-]+)=", params_blob))
        unknown = used - declared
        assert not unknown, (
            f"atlas invocation for {name!r} uses undeclared param(s) "
            f"{sorted(unknown)}; declared: {sorted(declared)}"
        )


def test_atlas_benchmark_files_exist():
    text = ATLAS.read_text()
    cited = set(re.findall(r"test_[\w]+\.py", text))
    assert cited, "atlas cites no benchmark files"
    missing = sorted(
        name for name in cited
        if not (REPO_ROOT / "benchmarks" / name).exists()
        and not (REPO_ROOT / "tests" / name).exists()
    )
    assert not missing, f"atlas cites nonexistent benchmark files: {missing}"


def test_architecture_names_every_layer_package():
    """The layer map must cover every src/repro subpackage."""
    text = ARCHITECTURE.read_text()
    packages = sorted(
        p.name
        for p in (REPO_ROOT / "src" / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    )
    missing = [name for name in packages if f"repro/{name}/" not in text]
    assert not missing, (
        f"docs/architecture.md layer map is missing package(s): {missing}"
    )


def _defines(path: Path, chain: list[str]) -> bool:
    """True when ``path`` defines the nested class/function ``chain``."""
    body = ast.parse(path.read_text()).body
    for name in chain:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_readme_crash_recovery_matrix_names_real_tests():
    """Every row of README's crash-recovery failure matrix names at
    least one test, and every test it names exists."""
    match = re.search(
        r"## Crash recovery\n(.*?)\n## ", README.read_text(), re.DOTALL
    )
    assert match, "README lost its '## Crash recovery' section"
    table = [line for line in match.group(1).splitlines() if line.startswith("|")]
    rows = table[2:]  # below the header and its separator
    assert rows, "README's crash-recovery section lost its failure matrix"
    for row in rows:
        tests = re.findall(r"`(tests/test_\w+\.py)((?:::\w+)+)`", row)
        assert tests, f"failure-matrix row names no test: {row}"
        for path, chain in tests:
            assert _defines(REPO_ROOT / path, chain.split("::")[1:]), (
                f"README's failure matrix names {path}{chain}, which "
                "does not exist"
            )


def test_readme_documents_warehouse():
    readme = README.read_text()
    assert "## Results warehouse & sweeps" in readme
    for needle in ("runs.jsonl", "fingerprint", "store report", "sweep"):
        assert needle in readme, f"warehouse section lost {needle!r}"
