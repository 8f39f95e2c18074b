"""The shipped demos run end to end and print what they printed when
their digests were pinned: a change to a scheme's fields or to a
regime's numbers shows here as a changed digest."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "blind_precoding":
        "4bd904e5d67fb57fc7efb675912411d57326596b2fc511d76ff6fa70b91066cd",
    "dof_bounds":
        "a4a6aca4045ad167d9e15da07069d909a6a370fec690621739dadb44923b3468",
    "fastfading_half_csi":
        "773e302dbd33e2c01169f67603c4ee2524c1c7d8c01d3262e75cbffe375f2fd0",
    "shared_patterns":
        "bc905cd769c67afc2a6391932232f1b19e9908e9cdffe5c9137b0e583d46222a",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == STDOUT_SHA256[name], out.getvalue()
