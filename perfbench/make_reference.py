"""Regenerate reference.json, the gate's expected answers.

    python3 perfbench/make_reference.py

Runs each workload once in a fresh interpreter and records every
instance: statement, parameters, verdict, expected-failure flag and
truncated witness, every SKIP, and each invocation's exit code.  Every
failing instance's witness, and the verdicts of all classical and
k-override instances, are recomputed by oracle.py, which does not import
qcong, and the script aborts unless both agree.  It also aborts unless
the totals are the 1,109 checks, 54 skips and 25 failures the workloads
are defined to have.  Only rerun it when a workload definition changes.
"""

from __future__ import annotations

import json

import oracle
from gate import REFERENCE, without_timing
from run import MANIFEST, spawn

EXPECTED_TOTALS = {"checks": 1109, "skips": 54, "failures": 25}


def oracle_witness(record: dict) -> dict | None:
    params = record["params"]
    if record["statement"] == "classical":
        got = oracle.classical(params["p"], params["a"], params["b"])
        flags = {k: params[k] for k in got["flags"]}
        if flags != got["flags"]:
            raise SystemExit(f"classical flags differ from the oracle: {record}")
        return got["witness"]
    if record["statement"] == "q_ljunggren" and params["k"] != 3:
        return oracle.q_ljunggren(params["p"], params["a"], params["b"], params["k"])
    raise SystemExit(f"no oracle for {record}")


def main() -> None:
    reference = {}
    totals = dict.fromkeys(EXPECTED_TOTALS, 0)
    for name in MANIFEST["workloads"]:
        rep = spawn("--workload", name)
        invocations = []
        for inv in rep["invocations"]:
            report = inv["report"]
            results = [without_timing(r) for r in report["results"]]
            for r in results:
                checked = r["statement"] == "classical" or (
                    r["statement"] == "q_ljunggren" and r["params"]["k"] != 3
                )
                if (checked or not r["passed"]) and oracle_witness(r) != r["witness_truncated"]:
                    raise SystemExit(f"qcong and the oracle disagree on {r}")
            if report["errored"]:
                raise SystemExit(f"{name}: errored instances {report['errored']}")
            totals["checks"] += len(results)
            totals["skips"] += len(report["skipped"])
            totals["failures"] += sum(not r["passed"] for r in results)
            invocations.append({"argv": inv["argv"], "exit_code": inv["exit_code"],
                                "results": results, "skipped": report["skipped"]})
        reference[name] = invocations
    if totals != EXPECTED_TOTALS:
        raise SystemExit(f"totals {totals}, expected {EXPECTED_TOTALS}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for w, (name, invocations) in enumerate(reference.items()):
            fh.write(f'"{name}": [\n')
            for i, inv in enumerate(invocations):
                fh.write(f'{{"argv": {json.dumps(inv["argv"])}, '
                         f'"exit_code": {inv["exit_code"]},\n"results": [\n')
                fh.write(",\n".join(json.dumps(r) for r in inv["results"]))
                fh.write('],\n"skipped": [\n')
                fh.write(",\n".join(json.dumps(s) for s in inv["skipped"]))
                fh.write("]}" + ("," if i + 1 < len(invocations) else "") + "\n")
            fh.write("]" + ("," if w + 1 < len(reference) else "") + "\n")
        fh.write("}\n")
    print(f"wrote {REFERENCE}: {totals}")


if __name__ == "__main__":
    main()
