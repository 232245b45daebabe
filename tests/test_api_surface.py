"""The package's public surface: every exported name resolves."""

import hgspdc


def test_star_import_and_all_resolve():
    namespace = {}
    # a stale name in __all__ makes the star import raise AttributeError
    exec("from hgspdc import *", namespace)
    assert set(hgspdc.__all__) <= namespace.keys()
