"""The package namespace."""

import ietlab


def test_every_exported_name_resolves():
    for name in ietlab.__all__:
        assert hasattr(ietlab, name), name
    namespace = {}
    exec("from ietlab import *", namespace)
    assert set(ietlab.__all__) <= set(namespace)
