"""The package namespace: what `threeterm.__all__` exports."""

import threeterm


def test_every_export_resolves_once():
    names = threeterm.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(threeterm, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from threeterm import *", namespace)
    assert set(threeterm.__all__) <= set(namespace)
