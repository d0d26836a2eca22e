"""The benchmark's committed reference reports must hold in the test suite.

Each workload's invocations in perfbench/manifest.json run through the CLI
in-process, and perfbench's own correctness gate compares every verdict,
witness, skip and exit code with perfbench/reference.json.  Only reads
from perfbench/.
"""

from __future__ import annotations

import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qcong.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from gate import compare, load_reference  # noqa: E402

WORKLOADS = json.loads((PERFBENCH / "manifest.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_report_holds(workload):
    observed = []
    for argv in WORKLOADS[workload]["invocations"]:
        buf = StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        observed.append({"exit_code": code, "report": json.loads(buf.getvalue())})
    attempted, problems = compare(load_reference()[workload], observed)
    assert attempted > 0
    assert problems == []
