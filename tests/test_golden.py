"""The output bytes of ``peerlearn run``, ``bound`` and ``check-graph``, pinned by SHA-256.

``golden.json`` holds, per config of ``golden_configs.json``, the SHA-256 of
``metrics.csv``, ``metrics.json``, ``summary.json`` less ``runtime_seconds``
and the stdout of ``bound`` and ``check-graph``, with the numpy version, CPU
features and OpenBLAS core it was made under: the discrete bits follow
numpy's SIMD ``exp`` and ``log``, the merge, the test-set moments and the
test MSE's linear term its BLAS, and the spectral values its LAPACK. A
differing hash fails under any environment, and the message names what
differs in the environment too.
``run`` must write the same bytes whether its trials run in the default
groups or one trial per group. A change that moves output on purpose
regenerates the manifest, so that the diff shows it:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import re
import subprocess
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


def openblas_core() -> str | None:
    """The core of numpy's bundled OpenBLAS, as ``SkylakeX``; None where it cannot be read.

    ``scipy_openblas_get_corename64_`` is a private symbol of numpy's wheel,
    so a build without the bundled library or the symbol reads None.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict:
    return {"numpy": np.__version__, "openblas_core": openblas_core(),
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


_LABELS = {"numpy": "numpy", "openblas_core": "OpenBLAS core"}


def environment_note(made: dict, here: dict) -> str:
    """The failure note: how the environment ``made``, the manifest's, differs from ``here``."""
    differs = [f"{_LABELS[key]} {made.get(key)} (here {value})" if key in _LABELS
               else "other CPU features" for key, value in here.items() if made.get(key) != value]
    if not differs:
        return ""
    return (f" (golden.json was made under {', '.join(differs)}; regenerate it if the change is "
            "the environment's)")


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
    note = environment_note(manifest["environment"], environment())
    assert not moved, f"{name}: {', '.join(moved)} differ from golden.json{note}"


def test_isolated_discrete_metrics_do_not_follow_the_blas_core(tmp_path):
    # An isolated discrete run calls no BLAS, so another OpenBLAS kernel writes the same bytes.
    name = "writer-bernoulli-isolated"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": str(Path(sim.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-m", "peerlearn.cli", "run", str(config),
                    "--out", str(tmp_path / "out"), "--format", "csv"],
                   env=env, capture_output=True, check=True)
    manifest = json.loads(MANIFEST_PATH.read_text())
    actual = hashlib.sha256((tmp_path / "out" / "metrics.csv").read_bytes()).hexdigest()
    note = environment_note(manifest["environment"], environment())
    assert actual == manifest["sha256"][name]["metrics.csv"], \
        f"{name}: metrics.csv differs from golden.json under OPENBLAS_CORETYPE=Sandybridge{note}"


def test_note_names_what_differs_in_the_environment():
    here = {"numpy": "2.4.6", "openblas_core": "SkylakeX", "cpu_features": ["AVX", "AVX2"]}
    assert environment_note(here, here) == ""
    assert environment_note({**here, "openblas_core": "Haswell"}, here) == (
        " (golden.json was made under OpenBLAS core Haswell (here SkylakeX); regenerate it "
        "if the change is the environment's)")
    made = {"numpy": "2.3.0", "cpu_features": ["AVX"]}
    assert environment_note(made, here) == (
        " (golden.json was made under numpy 2.3.0 (here 2.4.6), OpenBLAS core None (here "
        "SkylakeX), other CPU features; regenerate it if the change is the environment's)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: digests(config, Path(tmp) / name) for name, config in CONFIGS.items()}
    MANIFEST_PATH.write_text(json.dumps({"environment": environment(), "sha256": hashes},
                                        indent=1, sort_keys=True) + "\n")
