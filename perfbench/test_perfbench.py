"""Tests of the benchmark's own arithmetic and correctness gate.

    python3 -m pytest -q perfbench

They use the committed reference answers and synthetic spans only, so
they start no interpreter and do not import qcong.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from gate import compare, load_reference
from run import MANIFEST, per_layer
from spans import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_excludes_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        inner()
        clock.advance(0.5)
        inner()

    def top():
        clock.advance(3.0)
        mid()

    inner = tracer.wrap("leaf", leaf)
    mid = tracer.wrap("middle", middle)
    tracer.wrap("top", top)()

    t = tracer.totals()
    assert t["leaf"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert t["middle"] == {"calls": 1, "s": 5.5, "self_s": 1.5}
    assert t["top"] == {"calls": 1, "s": 8.5, "self_s": 3.0}
    assert tracer.parents == [-1, 0, 1, 1]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.totals()["boom"]["s"] == 1.0
    tracer.wrap("after", lambda: None)()
    assert tracer.parents[-1] == -1


def observed_from(reference: list[dict]) -> list[dict]:
    """What a correct program reports for the reference invocations."""
    return [
        {
            "exit_code": inv["exit_code"],
            "report": {
                "results": [dict(copy.deepcopy(r), elapsed_ms=1.0) for r in inv["results"]],
                "skipped": copy.deepcopy(inv["skipped"]),
                "errored": [],
            },
        }
        for inv in reference
    ]


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def test_reference_has_every_instance(reference):
    results = [r for w in reference.values() for inv in w for r in inv["results"]]
    skipped = [s for w in reference.values() for inv in w for s in inv["skipped"]]
    assert (len(results), len(skipped)) == (1109, 54)
    assert sum(not r["passed"] for r in results) == 25
    assert [inv["exit_code"] for inv in reference["ljunggren"]] == [0, 1]


@pytest.mark.parametrize("workload", ["catalog", "ljunggren", "harmonic"])
def test_gate_accepts_the_reference(reference, workload):
    ref = reference[workload]
    attempted, problems = compare(ref, observed_from(ref))
    assert problems == []
    assert attempted == sum(len(i["results"]) + len(i["skipped"]) for i in ref)


def _first(records, passed):
    return next(r for r in records if r["passed"] is passed)


def test_gate_flags_a_flipped_verdict(reference):
    obs = observed_from(reference["ljunggren"])
    _first(obs[0]["report"]["results"], True)["passed"] = False
    assert len(compare(reference["ljunggren"], obs)[1]) == 1


def test_gate_flags_an_altered_witness_coefficient(reference):
    obs = observed_from(reference["ljunggren"])
    _first(obs[1]["report"]["results"], False)["witness_truncated"]["coefficients"][5] += 1
    assert len(compare(reference["ljunggren"], obs)[1]) == 1


def test_gate_flags_a_check_turned_into_a_skip(reference):
    obs = observed_from(reference["catalog"])
    report = obs[0]["report"]
    record = report["results"].pop(17)
    report["skipped"].append(
        {"statement": record["statement"], "params": record["params"], "reason": "over budget"}
    )
    problems = compare(reference["catalog"], obs)[1]
    assert len(problems) == 1 and "skipped" in problems[0]


def test_gate_flags_a_missing_expected_skip_and_a_wrong_exit_code(reference):
    obs = observed_from(reference["harmonic"])
    obs[0]["report"]["skipped"].pop()
    obs[0]["exit_code"] = 1
    assert len(compare(reference["harmonic"], obs)[1]) == 2


def test_counts_must_repeat_between_traced_runs():
    layers = {"poly.mul.calls": 10, "poly.mul.s": 1.0}
    reps = [
        {"kind": "traced", "wall_s": 2.0, "layers": layers},
        {"kind": "traced", "wall_s": 2.2, "layers": dict(layers, **{"poly.mul.s": 1.1})},
        {"kind": "plain", "wall_s": 1.9},
    ]
    problems: list[str] = []
    samples = per_layer(reps, problems)
    assert problems == []
    assert samples["trace.overhead_s"] == pytest.approx([0.1, 0.3])
    reps[1]["layers"]["poly.mul.calls"] = 11
    per_layer(reps, problems)
    assert len(problems) == 1 and "poly.mul.calls" in problems[0]


def test_manifest_matches_benchmark_json():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        fields = ("name", "unit", "better", "bound") if kind == "end_to_end" else (
            "name", "unit", "better")
        assert [{f: m[f] for f in fields} for m in MANIFEST[kind]] == bench[kind]
    assert [w["name"] for w in bench["workloads"]] == list(MANIFEST["workloads"])
