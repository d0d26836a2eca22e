"""Prefix sums are taken only in qcong.poly: by Poly.times_q_number, and by
one stride-sum helper, _stride_sums, shared by the q-binomial step
poly.half_times_q_ratio and the fold modulo (q^p - 1)^k, Poly.taylor_fold.
No other module takes prefix sums or names that helper."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qcong"


def _uses_accumulate(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name in ("accumulate", "*") for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "accumulate":
            if isinstance(node.value, ast.Name) and node.value.id == "itertools":
                return True
    return False


def test_only_poly_takes_prefix_sums():
    users = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if _uses_accumulate(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert users == ["poly.py"]


def _names_stride_sums(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_stride_sums":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "_stride_sums":
            return True
        if isinstance(node, ast.ImportFrom) and any(
            alias.name in ("_stride_sums", "*") for alias in node.names
        ):
            return True
    return False


def test_only_poly_names_the_stride_sums():
    users = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if _names_stride_sums(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert users == ["poly.py"]
