"""The output bytes of ``peerlearn run``, ``bound`` and ``check-graph``, pinned by SHA-256.

``golden.json`` holds, per config of ``golden_configs.json``, the SHA-256 of
``metrics.csv``, ``metrics.json``, ``summary.json`` less ``runtime_seconds``
and the stdout of ``bound`` and ``check-graph``, with the numpy version and
CPU features it was made under: the discrete bits follow numpy's SIMD ``exp``
and ``log``. A differing hash fails under any environment, and the message
says when the environment differs too. ``run`` must write the same bytes
whether its trials run in the default groups or one trial per group. A change that moves output on purpose
regenerates the manifest, so that the diff shows it:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from peerlearn import sim
from peerlearn.cli import main as cli_main

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

HERE = Path(__file__).parent
CONFIGS = json.loads((HERE / "golden_configs.json").read_text())
MANIFEST_PATH = HERE / "golden.json"


def environment() -> dict:
    return {"numpy": np.__version__,
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def _stdout(*argv) -> bytes:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli_main(list(argv))
    assert code == 0, f"peerlearn {' '.join(argv)} exited {code}"
    return captured.getvalue().encode()


def digests(config: dict, workdir: Path) -> dict[str, str]:
    """SHA-256 of each pinned output of ``config``, run in ``workdir``."""
    workdir.mkdir(parents=True)
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    outputs = {}
    for fmt in ("csv", "json"):
        _stdout("run", str(path), "--out", str(workdir / fmt), "--format", fmt)
        outputs[f"metrics.{fmt}"] = (workdir / fmt / f"metrics.{fmt}").read_bytes()
    summary = (workdir / "csv" / "summary.json").read_bytes()
    outputs["summary.json"], removed = re.subn(rb'\n *"runtime_seconds": [^\n]*', b"", summary)
    assert removed == 1
    if "parameters" in config["scenario"]:
        outputs["bound.stdout"] = _stdout("bound", str(path))
    outputs["check-graph.stdout"] = _stdout("check-graph", str(path))
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


@pytest.mark.parametrize("one_trial_groups", [False, True],
                         ids=["default-groups", "one-trial-groups"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_match_the_manifest(name, tmp_path, monkeypatch, one_trial_groups):
    if one_trial_groups:
        monkeypatch.setattr(sim, "_GROUP_BYTES", 1)
    manifest = json.loads(MANIFEST_PATH.read_text())
    expected = manifest["sha256"].get(name)
    assert expected is not None, f"{name}: no hashes in golden.json; regenerate it"
    actual = digests(CONFIGS[name], tmp_path / "out")
    moved = sorted(f for f in expected.keys() | actual.keys() if expected.get(f) != actual.get(f))
    note = "" if manifest["environment"] == environment() else (
        f" (golden.json was made under numpy {manifest['environment']['numpy']} and other "
        f"CPU features than numpy {np.__version__} here; regenerate it if the change is "
        "the environment's)")
    assert not moved, f"{name}: {', '.join(moved)} differ from golden.json{note}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: digests(config, Path(tmp) / name) for name, config in CONFIGS.items()}
    MANIFEST_PATH.write_text(json.dumps({"environment": environment(), "sha256": hashes},
                                        indent=1, sort_keys=True) + "\n")
