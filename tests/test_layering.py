"""Prefix sums are taken only in qcong.poly, by one stride-sum helper,
_stride_sums, shared by the q-integer kernel Poly.times_q_number (stride
over, the divisor [over]_q), the q-binomial step poly.half_times_q_ratio and
the fold modulo (q^p - 1)^k, Poly.fold.
No other module takes prefix sums or names that helper, and no other module
defines a fold or the block count, FOLD_BLOCK_CUTOFF, that picks its loop.
Monic division has one src caller: CongruenceContext.reduce divides by the
modulus, and valuation divides by [p]_q with times_q_number.

A Gaussian binomial reaches its residue by one path: the only reduce of a
q_binomial(...) call is in statements.binomial_residue, and qcong.cli, whose
reduce command reads that function, names neither q_binomial nor
CongruenceContext.  binomial_residue owns the symmetric key, so no caller
passes it a min(...).

The packed product kernel (poly.pack, poly.unpack and poly.packed_product) is
named only in qcong.poly and qcong.congruence; statements multiplies residues
through CongruenceContext.mul, so none of its reduce calls takes a product.

Every function and method defined in src/qcong runs on a short CLI sweep,
except the names in UNREACHED, each with its reason; a name there that
is gone, or that the sweep now reaches, fails the test as well."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
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


def _defines_a_fold(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "fold":
            return True
        if (isinstance(node, ast.Name) and node.id == "FOLD_BLOCK_CUTOFF"
                and isinstance(node.ctx, ast.Store)):
            return True
    return False


def test_only_poly_defines_the_fold():
    users = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if _defines_a_fold(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert users == ["poly.py"]


class _MonicDivisions(ast.NodeVisitor):
    """Records the enclosing Class.function of every .divrem_monic(...) call."""

    def __init__(self) -> None:
        self.scope, self.found = [], []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "divrem_monic":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_reduce_divides_by_a_monic_polynomial():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _MonicDivisions()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.name, scope) for scope in visitor.found]
    assert found == [("congruence.py", "CongruenceContext.reduce")]


def _names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_cli_builds_and_reduces_no_binomial_itself():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert not _names(tree) & {"q_binomial", "CongruenceContext", "*"}


class _BinomialReduces(ast.NodeVisitor):
    """Records the enclosing function of every .reduce(q_binomial(...)) call."""

    def __init__(self) -> None:
        self.scope, self.found = "<module>", []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "reduce" and any(
            isinstance(arg, ast.Call) and "q_binomial" in _names(arg.func) for arg in node.args
        ):
            self.found.append(self.scope)
        self.generic_visit(node)


def test_one_path_reduces_a_gaussian_binomial():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _BinomialReduces()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.name, scope) for scope in visitor.found]
    assert found == [("statements.py", "binomial_residue")]


def _min_args_to_binomial_residue(tree: ast.AST) -> list[int]:
    """Line numbers of binomial_residue(...) calls with a min(...) in an argument."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "binomial_residue" in _names(node.func)
        and any(
            isinstance(sub, ast.Call) and "min" in _names(sub.func)
            for arg in [*node.args, *(kw.value for kw in node.keywords)]
            for sub in ast.walk(arg)
        )
    ]


def test_no_caller_passes_binomial_residue_a_min():
    found = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in _min_args_to_binomial_residue(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_only_poly_and_congruence_name_the_packed_kernel():
    users = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if _names(ast.parse(path.read_text(encoding="utf-8")))
        & {"pack", "unpack", "packed_product", "*"}
    ]
    assert users == ["congruence.py", "poly.py"]


def _reduced_products(tree: ast.AST) -> list[int]:
    """Line numbers of .reduce(...) calls whose argument holds a product of
    two operands that are not numeric literals."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "reduce"
        and any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
            and not any(isinstance(side, ast.Constant) for side in (sub.left, sub.right))
            for arg in node.args
            for sub in ast.walk(arg)
        )
    ]


def test_statements_reduces_no_product_of_residues():
    tree = ast.parse((SRC / "statements.py").read_text(encoding="utf-8"))
    assert _reduced_products(tree) == []


# One fresh interpreter, so the lru caches start cold: it records the first
# line of every code object called under src/qcong while main runs the sweep.
SWEEP = """
import contextlib, io, json, os, sys
sys.path[:0] = ['src']
src = os.path.abspath('src/qcong')
called = set()
def profile(frame, event, arg):
    if event == 'call' and frame.f_code.co_filename.startswith(src):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))
sys.setprofile(profile)
from qcong import statements
from qcong.cli import main
sweep = [
    ['all', '--p-max', '5', '--a-max', '1', '--negative-controls', '--format', 'json'],
    ['check', '--statements', ','.join(statements.STATEMENT_IDS), '--p', '4,5',
     '--a-max', '2', '--k-override', '3'],
    ['reduce', '--n', '20', '--k', '12', '--p', '5'],
    ['reduce', '--n', '60', '--k', '20', '--p', '5', '--power', '3'],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in sweep]
sys.setprofile(None)
print(json.dumps({'codes': codes, 'called': sorted(called)}))
"""

BENCHMARK_PIN = "benchmark pin: perfbench/child.py wraps it or gcd_primitive; ROADMAP item 2"
ORACLE = "the tests' oracle and diagnostic surface"
UNREACHED = {
    "poly.gcd_primitive": BENCHMARK_PIN,
    "poly._pseudo_rem": BENCHMARK_PIN,
    "poly._primitive": BENCHMARK_PIN,
    "poly._content": BENCHMARK_PIN,
    "poly.Poly.exact_div": BENCHMARK_PIN,
    "congruence.CongruenceContext.frac_congruent": BENCHMARK_PIN,
    "poly.Poly.monomial": ORACLE,
    "poly.Poly.__eq__": ORACLE,
    "poly.Poly.__hash__": ORACLE,
    "poly.Poly.__neg__": ORACLE,
    "poly.Poly.__pow__": ORACLE,
    "poly.Poly.__repr__": ORACLE,
}


def _defined_functions(tree: ast.AST, prefix: str) -> dict[int, str]:
    """Each function or method, keyed by the first line of its code object
    (its first decorator's, if any), named prefix.Class.function."""
    found = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found.update(_defined_functions(node, f"{prefix}.{node.name}"))
        elif isinstance(node, ast.FunctionDef):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            found[first] = f"{prefix}.{node.name}"
            found.update(_defined_functions(node, f"{prefix}.{node.name}"))
    return found


def test_every_src_function_runs_on_a_cli_path():
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP], cwd=SRC.parents[1], capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sweep = json.loads(proc.stdout)
    # clark holds only modulo ([p]_q)^2, so k = 3 leaves one FAIL with a witness
    assert sweep["codes"] == [0, 1, 0, 0]
    called = {tuple(site) for site in sweep["called"]}
    unreached = sorted(
        name
        for path in sorted(SRC.glob("*.py"))
        for line, name in _defined_functions(
            ast.parse(path.read_text(encoding="utf-8")), path.stem).items()
        if (path.name, line) not in called
    )
    assert unreached == sorted(UNREACHED)
