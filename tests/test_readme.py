"""The README's ``>>>`` quickstart runs as written, the README, the
package metadata and the CI matrix state one lowest Python version, CI
installs for the tests exactly the metadata's ``test`` extra, and the
files and the console command that CI's steps run are in the tree."""

import doctest
import itertools
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


def run_steps(workflow):
    """The shell text of each ``run:`` step, a block's lines joined."""
    steps, lines = [], workflow.splitlines()
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)(?:- )?run: (.*)", line)
        if m is None:
            continue
        if m[2] != "|":
            steps.append(m[2])
            continue
        block = itertools.takewhile(lambda text: len(text) - len(text.lstrip()) > len(m[1]) or not text.strip(),
                                    lines[i + 1:])
        steps.append("\n".join(text.strip() for text in block))
    return steps


def test_every_file_and_command_that_ci_runs_is_in_the_tree():
    steps = run_steps((ROOT / ".github/workflows/tests.yml").read_text())
    files = {path for step in steps for path in re.findall(r"(?<![\w/.$-])[\w-]+(?:/[\w.-]+)+\.\w+", step)}
    assert {"tests/test_console.py", "perfbench/run.py"} <= files
    assert [path for path in sorted(files) if not (ROOT / path).is_file()] == []
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    console = [m[1] for step in steps for m in re.finditer(r"tests/test_console\.py (\S+)", step)]
    assert console and all(command in scripts for command in console), (console, sorted(scripts))
