"""Golden CLI outputs: every subcommand's stdout and output files, byte for byte.

Each case runs three times: without ``--output`` (stdout only), with
``--output FILE --format json`` and with ``--output FILE --format csv``.
The stdout of every run and both written files are compared with the files
under ``tests/golden``; the inputs are in ``tests/golden/inputs``. The
output path echoed in a stdout line is replaced by ``<OUTPUT>`` first, so
the goldens do not depend on the temporary directory.

Regenerate the goldens (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py [CASE ...]``: the named cases,
or every case when none is named.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from conjrisk.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
PLACEHOLDER = "<OUTPUT>"

CASES: dict[str, list[str]] = {
    "pc_head_on": ["pc", "--input", "head_on.json"],
    "pc_kvn": ["pc", "--input", "offset.kvn"],
    "pc_full12": ["pc", "--input", "full12.json"],
    "pc_precision4": ["--config", "precision4.cfg", "pc", "--input", "head_on.json"],
    "screen_head_on": ["screen", "--input", "head_on.json"],
    "screen_kvn": ["screen", "--input", "offset.kvn", "--k-sigma", "3"],
    "screen_full12": ["screen", "--input", "full12.json", "--k-sigma", "5"],
    "boundary": ["boundary", "--threshold", "4.4e-4"],
    "boundary_radius": ["boundary", "--threshold", "1e-7", "--combined-radius", "5"],
    "dilution_curve": ["dilution-curve", "--d-over-r", "5", "--n-points", "32"],
    "dilution_curve_precision4": [
        "--config", "precision4.cfg",
        "dilution-curve", "--d-over-r", "0", "--s-min", "1", "--s-max", "10",
        "--n-points", "16",
    ],
    "detection_curve": ["detection-curve", "--s-over-r", "10", "--d-true", "0"],
    "detection_curve_grid": [
        "detection-curve", "--s-over-r", "2", "--d-true", "0.5",
        "--threshold-grid", "1e-6,1e-4,1e-2,0.5",
    ],
    "detection_curve_mc": [
        "detection-curve", "--s-over-r", "3", "--d-true", "0.7",
        "--method", "monte-carlo", "--n-trials", "20000", "--seed", "7",
        "--threshold-grid", "1e-7,4.4e-4,1e-2",
    ],
    "validity_ksigma": [
        "validity", "--rule", "ksigma", "--halfwidth", "0.1",
        "--alpha-grid", "0.05,0.2", "--n-trials", "1000", "--seed", "3",
    ],
    "validity_additive": [
        "validity", "--rule", "additive", "--halfwidth", "0.0626",
        "--alpha-grid", "0.01,0.05", "--n-trials", "1000", "--seed", "4",
    ],
    "false_confidence": ["false-confidence", "--n-trials", "2000", "--seed", "8"],
    "false_confidence_halfwidth": [
        "false-confidence", "--sigma", "2", "--alpha", "0.1", "--halfwidth", "0.5",
        "--n-trials", "3000", "--seed", "11",
    ],
}

_INPUT_FLAGS = ("--input", "--config")


def _argv(case: str) -> list[str]:
    argv = list(CASES[case])
    for i, token in enumerate(argv[:-1]):
        if token in _INPUT_FLAGS:
            argv[i + 1] = str(GOLDEN / "inputs" / argv[i + 1])
    return argv


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = run_command(argv)
    assert status == 0, f"{argv} exited {status}"
    return out.getvalue()


def outputs(case: str, workdir: Path) -> dict[str, bytes]:
    """Golden file name -> bytes for the three runs of one case."""
    argv = _argv(case)
    produced = {f"{case}.stdout": _run(argv).encode("utf-8")}
    for fmt in ("json", "csv"):
        path = workdir / f"{case}.{fmt}"
        stdout = _run(argv + ["--output", str(path), "--format", fmt])
        produced[f"{case}.{fmt}.stdout"] = stdout.replace(
            str(path), PLACEHOLDER
        ).encode("utf-8")
        produced[f"{case}.{fmt}"] = path.read_bytes()
    return produced


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    for name, data in outputs(case, tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize(
    "case", sorted(c for c in CASES if set(_INPUT_FLAGS) & set(CASES[c]))
)
def test_byte_order_mark_is_ignored(case, tmp_path):
    """Each input file with a UTF-8 byte-order mark prefixed gives the
    golden stdout."""
    argv = _argv(case)
    for i, token in enumerate(argv[:-1]):
        if token in _INPUT_FLAGS:
            source = Path(argv[i + 1])
            argv[i + 1] = str(tmp_path / source.name)
            (tmp_path / source.name).write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    assert _run(argv).encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for case in sys.argv[1:] or sorted(CASES):
            for name, data in outputs(case, Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)
