import doctest
from pathlib import Path

import qdilemma


def test_every_export_resolves():
    assert [name for name in qdilemma.__all__ if not hasattr(qdilemma, name)] == []


def test_star_import_brings_exactly_the_exports():
    namespace = {}
    exec("from qdilemma import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qdilemma.__all__)


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False, encoding="utf-8")
    assert attempted > 0 and failed == 0
