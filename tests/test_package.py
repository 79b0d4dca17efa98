import qdilemma


def test_every_export_resolves():
    assert [name for name in qdilemma.__all__ if not hasattr(qdilemma, name)] == []


def test_star_import_brings_exactly_the_exports():
    namespace = {}
    exec("from qdilemma import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qdilemma.__all__)
