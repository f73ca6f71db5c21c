"""Every CLI output over a fixed run matrix, checked against a committed corpus.

The matrix drives ``cli.main`` in-process: simulate, compare and both stresses
on every preset; sweep and breakeven on every preset over a delta axis that
includes 0, 0.001 and 1; mc with 300 draws on every preset; every
export-plots family; and one ``--config`` run with ``policy.*`` overrides.

``data/output_corpus.json`` holds, for each run, its summary line and, for
each file it writes:

- a CSV file's sha256.  Its ``%.6g`` cells are robust to ulp noise;
- a JSON file's content, compared with its keys exactly and its numbers to
  rel 1e-12, since JSON writes full ``repr`` floats;
- the manifest the same way, with the output directory and the parameter
  file's path replaced by placeholders and the JSON files' checksums left out.

A change that moves an output on purpose regenerates the corpus with
``PYTHONPATH=src python tests/test_output_corpus.py`` and names every entry
that moved in CHANGES.md.  The corpus is never regenerated in CI.

Reproducibility has two tiers.  Reruns on one host with one numpy are byte
for byte the same.  Across hosts, this corpus holds: the CSV digests over
6-digit cells, and the JSON numbers to rel 1e-12.  CI runs this file a
second time with every SIMD feature numpy dispatches disabled
(``NPY_DISABLE_CPU_FEATURES``), so the corpus is checked on two code paths.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from adhersim.cli import main
from adhersim.exports import PLOT_FAMILIES
from adhersim.params import reference_params_path
from adhersim.scenarios import PRESET_NAMES, StressKind

CORPUS = Path(__file__).parent / "data" / "output_corpus.json"
DELTA_AXIS = "0,0.001,0.2,0.3,0.45,1"
GAMMA_AXIS = "0,0.5,1,1.5,2"
CONFIG = """\
params_file = {params}
scenario = adaptive_nudges
mode = compare
output_dir = unused
policy.adherence_gain_delta = 0.35
policy.cost_scale_gamma = 1.25
policy.start_tau = 0.5
"""


def _matrix() -> dict[str, list[str]]:
    """Run name -> the argv that follows ``--out OUT``."""
    runs = {}
    for name in PRESET_NAMES:
        runs[f"simulate-{name}"] = ["simulate", "--scenario", name]
        runs[f"compare-{name}"] = ["compare", "--scenario", name]
        for kind in StressKind:
            runs[f"stress-{kind.value}-{name}"] = ["stress", "--scenario", name, "--kind", kind.value]
        runs[f"sweep-{name}"] = ["sweep", "--scenario", name,
                                 "--delta-axis", DELTA_AXIS, "--gamma-axis", GAMMA_AXIS]
        runs[f"breakeven-{name}"] = ["breakeven", "--scenario", name, "--delta-axis", DELTA_AXIS]
        runs[f"mc-{name}"] = ["--seed", "11", "mc", "--scenario", name, "--n-draws", "300"]
    for family in PLOT_FAMILIES:
        mc = ["--n-draws", "120"] if family == "mc" else []
        runs[f"export-plots-{family}"] = ["--seed", "3", "export-plots", "--family", family, *mc]
    runs["config-policy-overrides"] = ["--config", "{config}", "compare"]
    return runs


MATRIX = _matrix()


def run_digest(name: str, root: Path) -> dict:
    """Run one matrix entry under ``root`` and digest what it printed and wrote."""
    out = root / name
    params = str(reference_params_path())
    config = root / f"{name}.cfg"
    config.write_text(CONFIG.format(params=params))
    argv = [arg.replace("{config}", str(config)) for arg in MATRIX[name]]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["--out", str(out), *argv]) == 0

    def normalise(text: str) -> str:
        return text.replace(str(out), "<out>").replace(params, "<params>")

    files = {}
    for path in sorted(out.iterdir()):
        raw = path.read_bytes()
        if path.suffix == ".csv":
            files[path.name] = hashlib.sha256(raw).hexdigest()
            continue
        doc = json.loads(normalise(raw.decode()))
        if path.name == "manifest.json":
            for entry in doc["files"]:
                if entry["name"].endswith(".json"):
                    del entry["checksum"]
        files[path.name] = doc
    return {"stdout": normalise(printed.getvalue()), "files": files}


def mismatches(expected, actual, where: str = "") -> list[str]:
    """Where ``actual`` departs from ``expected``: keys exactly, numbers to rel 1e-12."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for key in expected for m in mismatches(expected[key], actual[key], f"{where}/{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(actual)} items != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (expected, actual))
        if numbers and math.isclose(expected, actual, rel_tol=1e-12):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_the_matrix(corpus):
    assert sorted(corpus) == sorted(MATRIX)


@pytest.mark.parametrize("name", list(MATRIX))
def test_run_matches_corpus(name, corpus, tmp_path):
    assert mismatches(corpus[name], run_digest(name, tmp_path)) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_digest(name, Path(tmp)) for name in MATRIX}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} runs to {CORPUS}", file=sys.stderr)
