"""Deterministic cost guard, counted through ``run_command`` with no timing.

For the triage commands: how many eigendecompositions, covariance
validations and ``Ellipsoid`` validations one ``pc`` and one ``screen``
make. Input is checked where it enters and derived values are trusted. A
``pc`` validates the 12x12 joint covariance once; the 2x2 plane covariance
derived from it takes one bare eigendecomposition. A ``screen`` validates
the 12x12 once; both 3x3 position blocks come from it, decomposed in one
batched call, and the two ellipsoids built on them are not validated again.

For the Monte Carlo commands: how many substream generators
(``rng.stream``) the validity golden cases make, one per block drawn. At
or below the proof halfwidth of every level the additive rule's rate is
exactly 1 and no block is drawn, down to the smallest levels.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from conjrisk import ellipsoids, geometry, screening, validity
from conjrisk.cli import run_command

from test_golden import _argv

INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture
def counts(monkeypatch):
    """Counters of ``np.linalg.eigh``, ``covariance_eigh`` and
    ``Ellipsoid.__post_init__`` calls."""
    tally = {"eigh": 0, "covariance_eigh": 0, "Ellipsoid.__post_init__": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    wrapper = counted("covariance_eigh", geometry.covariance_eigh)
    for module in (geometry, ellipsoids, screening, validity):
        if hasattr(module, "covariance_eigh"):
            monkeypatch.setattr(module, "covariance_eigh", wrapper)
    monkeypatch.setattr(ellipsoids.Ellipsoid, "__post_init__", counted(
        "Ellipsoid.__post_init__", ellipsoids.Ellipsoid.__post_init__))
    return tally


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run_command(argv) == 0


@pytest.mark.parametrize("name", ["full12.json", "head_on.json", "offset.kvn"])
def test_pc_decomposes_each_covariance_once(name, counts):
    _run(["pc", "--input", str(INPUTS / name)])
    assert counts == {"eigh": 2, "covariance_eigh": 1, "Ellipsoid.__post_init__": 0}


@pytest.mark.parametrize("name", ["full12.json", "head_on.json", "offset.kvn"])
def test_screen_validates_the_joint_covariance_once(name, counts):
    _run(["screen", "--input", str(INPUTS / name), "--k-sigma", "3"])
    assert counts == {"eigh": 2, "covariance_eigh": 1, "Ellipsoid.__post_init__": 0}


@pytest.mark.parametrize("case, blocks", [
    ("false_confidence", 0),  # the default halfwidth is the proof halfwidth
    ("false_confidence_halfwidth", 1),
    ("validity_additive", 1),  # 0.0626 is beyond the proof halfwidth of 0.01
    ("validity_ksigma", 1),
])
def test_monte_carlo_golden_draws_its_blocks(case, blocks, streams):
    _run(_argv(case))
    assert len(streams) == blocks


@pytest.mark.parametrize("alpha", ["1e-9", "1e-30", "7.118364915588162e-220"])
def test_default_false_confidence_draws_no_block(alpha, streams):
    # at the proof halfwidth the centre mass is within 1e-16 relative of
    # alpha; float logs of both, near -505 at the last level, gave it an
    # edge of 3.4e-7, and every block was drawn
    _run(["false-confidence", "--alpha", alpha, "--seed", "1"])
    assert streams == []
