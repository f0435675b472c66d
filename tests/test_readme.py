"""The README's ``>>>`` quickstart runs as written, the README, the
package metadata and the CI matrix state one lowest Python version, and
CI installs for the tests exactly the metadata's ``test`` extra."""

import doctest
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_quickstart_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


def test_the_python_floor_is_the_same_in_metadata_ci_and_readme():
    with open(ROOT / "pyproject.toml", "rb") as f:
        requires = tomllib.load(f)["project"]["requires-python"]
    matrix = re.search(r"python-version: \[(.*)\]", (ROOT / ".github/workflows/tests.yml").read_text())
    ci = min(re.findall(r'"(\d+\.\d+)"', matrix[1]), key=lambda v: tuple(map(int, v.split("."))))
    install = README.read_text().split("## Install\n", 1)[1].split("\n## ", 1)[0]
    readme = re.search(r"Python (\d+\.\d+) or newer", install)[1]
    assert (requires, ci, readme) == (">=" + ci, ci, ci)


def test_ci_installs_the_test_extra_for_the_tests():
    with open(ROOT / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github/workflows/tests.yml").read_text()
    step = re.search(r"- name: Install the test dependencies\n\s+run: python -m pip install (.*)\n", workflow)
    assert step is not None, "no step installs the test dependencies"
    assert sorted(step[1].split()) == sorted(extra)
