"""Correctness gate: compare the CLI's JSON reports with the committed
reference answers in reference.json.

A reference item is one executed check (statement, params, verdict,
expected-failure flag, truncated witness) or one expected SKIP.  An item
fails when its check is missing, skipped or errored instead, or when any
reported field other than the timing differs.  Unexpected extra records
and a wrong exit code are failures too.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Parameters that identify an instance; the others are outcomes.
KEY_PARAMS = ("a", "b", "k", "m", "n", "p")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def instance_key(record: dict) -> tuple:
    params = record["params"]
    return record["statement"], tuple((k, params[k]) for k in KEY_PARAMS if k in params)


def without_timing(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "elapsed_ms"}


def compare(reference: list[dict], observed: list[dict]) -> tuple[int, list[str]]:
    """Check one workload's observed invocations ({exit_code, report})
    against its reference invocations.  Returns (attempted, problems):
    the number of reference items and one message per failure."""
    attempted = 0
    problems: list[str] = []
    for i, ref in enumerate(reference):
        if i >= len(observed):
            attempted += len(ref["results"]) + len(ref["skipped"])
            problems.extend(f"invocation {i}: not run" for _ in ref["results"] + ref["skipped"])
            continue
        obs = observed[i]
        report = obs["report"]
        results = {instance_key(r): r for r in report["results"]}
        skipped = {instance_key(s): s for s in report["skipped"]}
        errored = {instance_key(e): e for e in report["errored"]}
        for want in ref["results"]:
            attempted += 1
            key = instance_key(want)
            got = results.pop(key, None)
            if got is None:
                how = "skipped" if key in skipped else "errored" if key in errored else "missing"
                problems.append(f"invocation {i}: {key} {how}")
            elif without_timing(got) != want:
                problems.append(f"invocation {i}: {key} differs: {without_timing(got)}")
        for want in ref["skipped"]:
            attempted += 1
            key = instance_key(want)
            got = skipped.pop(key, None)
            if got != want:
                problems.append(f"invocation {i}: expected skip {key}, got {got}")
        ref_keys = {instance_key(w) for w in ref["results"] + ref["skipped"]}
        for key in sorted({*results, *skipped, *errored} - ref_keys):
            problems.append(f"invocation {i}: unexpected record {key}")
        if obs["exit_code"] != ref["exit_code"]:
            problems.append(
                f"invocation {i}: exit code {obs['exit_code']}, expected {ref['exit_code']}"
            )
    return attempted, problems
