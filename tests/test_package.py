import doctest
import re
from pathlib import Path

import numpy as np
import pytest

import qdilemma
from qdilemma import analysis, game, linalg

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_export_resolves():
    assert [name for name in qdilemma.__all__ if not hasattr(qdilemma, name)] == []


def test_star_import_brings_exactly_the_exports():
    namespace = {}
    exec("from qdilemma import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qdilemma.__all__)


def test_readme_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert attempted > 0 and failed == 0


def section_items(heading, label) -> list:
    """The items of the README section ``heading``, each as one string: every line
    that starts with a match of ``label`` and a full stop starts one."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.split(rf"^{label}\. ", section.split("\n## ", 1)[0], flags=re.MULTILINE)[1:]


def contract_rules() -> list:
    """The numbered rules of the README's "Numerical contracts", each as one string."""
    return section_items("Numerical contracts", r"\d+")


#: The README's sections whose items name tests: the pattern that starts an item, its
#: label, and the one marker that may stand in for a test there and nowhere else.
TESTED_SECTIONS = {"Numerical contracts": (r"\d+", "rule {}", r"\(untested\)"),
                   "Findings": (r"F\d+", "F{}", r"\(open: item \d+\)")}


def test_documented_tolerances_equal_the_code():
    documented = dict(re.findall(r"`(\w+\.[A-Z_]+)` = (\d+ eps|[\d.e+-]+)", contract_rules()[0]))
    assert sorted(documented) == ["analysis.TIE_TOL", "game.MAX_STAKE", "game.NEG_PROB_TOL",
                                  "game.PROB_SUM_TOL", "linalg.DUST_RTOL", "linalg.PSD_SLACK",
                                  "linalg.TOL"]
    modules = {"linalg": linalg, "game": game, "analysis": analysis}
    for name, text in documented.items():
        module, constant = name.split(".")
        value = int(text.split()[0]) * np.finfo(float).eps if text.endswith(" eps") else float(text)
        assert getattr(modules[module], constant) == value, name


class _Collected:
    """A pytest plugin that keeps the items of the collection it runs in."""

    items = ()

    def pytest_collection_finish(self, session):
        self.items = session.items


def collect(files) -> list:
    """The test items of ``files`` as pytest collects them, in this process."""
    plugin = _Collected()
    # the modules are mostly imported already, so their asserts cannot be rewritten again
    code = pytest.main(["--collect-only", "-qq", "--assert=plain", "-p", "no:cacheprovider",
                        "--rootdir", str(ROOT), *map(str, files)], plugins=[plugin])
    assert code == pytest.ExitCode.OK
    return plugin.items


def test_every_contract_names_collected_tests():
    problems = []
    named = {}
    for heading, (start, name, marker) in TESTED_SECTIONS.items():
        items = section_items(heading, start)
        assert items, heading
        others = [other for *_, other in TESTED_SECTIONS.values() if other != marker]
        for number, item in enumerate(items, 1):
            label = name.format(number)
            ids = re.findall(r"`(tests/[\w/]+\.py::[^`\s]+)`", item)
            if not ids and not re.search(marker, item):
                problems.append(f"{label} names no test and lacks its section's marker")
            problems += [f"{label} has another section's marker" for m in others if re.search(m, item)]
            for node in ids:
                named.setdefault(node, label)
    files = {node.split("::")[0] for node in named}
    missing = {name for name in files if not (ROOT / name).is_file()}
    items = collect(sorted(ROOT / name for name in files - missing))
    for node, label in named.items():
        if node.split("::")[0] in missing:
            problems.append(f"{label}: no file for {node}")
            continue
        # a function stands for its parametrizations and a class for its tests
        matched = [item for item in items
                   if item.nodeid == node or item.nodeid.startswith((node + "[", node + "::"))]
        if not matched:
            problems.append(f"{label}: {node} is not collected")
        for item in matched:
            for mark in ("skip", "skipif", "xfail"):
                if item.get_closest_marker(mark):
                    problems.append(f"{label}: {item.nodeid} is marked {mark}")
    assert problems == []
