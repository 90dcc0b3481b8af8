"""Packaging metadata: ``setup.cfg`` names the distribution and finds the
``src/`` packages, and reading it leaves nothing behind in the tree."""

import pathlib
import subprocess
import sys

from setuptools.config.setupcfg import read_configuration

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tree():
    return sorted(p.name for p in ROOT.iterdir())


def test_setup_py_reports_name():
    before = _tree()
    result = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "repro"
    assert _tree() == before


def test_package_discovery_finds_src_packages():
    before = _tree()
    options = read_configuration(str(ROOT / "setup.cfg"))["options"]
    assert options["package_dir"] == {"": "src"}
    assert {"repro", "repro.fastsim", "repro.sinr"} <= set(options["packages"])
    assert _tree() == before
