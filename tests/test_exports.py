"""The package's public names: every name in qcong.__all__ resolves, each is
listed once and in sorted order, and a star import binds exactly those names."""

from __future__ import annotations

import qcong


def test_every_exported_name_resolves_once_in_sorted_order():
    assert qcong.__all__ == sorted(set(qcong.__all__))
    missing = [name for name in qcong.__all__ if not hasattr(qcong, name)]
    assert missing == []


def test_star_import_binds_the_exported_names():
    namespace: dict[str, object] = {}
    exec("from qcong import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == qcong.__all__
