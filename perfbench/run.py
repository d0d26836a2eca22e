"""The qcong benchmark: cold-process CLI sweeps with a correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

qcong is imported from the `src/` directory beside this one, so run it
from a source checkout.  Every repetition is a fresh interpreter
(perfbench/child.py), so the q_binomial lru_cache and the Pascal rows
start empty exactly as in a user's `qcong` invocation.  Repetitions
repeat until the next one would pass S seconds (at least MIN_REPS).

--trace 0 prints the end-to-end metrics (medians over repetitions);
--trace 1 runs two traced repetitions and plain ones, and prints the
per-layer metrics, asserting that their counts repeat exactly.  The
workload grids are fixed; the seed only decides how many set-up probes
precede each repetition and where the traced repetitions fall.  Every repetition's
reports are checked against reference.json.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import compare, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench_out"
MANIFEST = json.loads((HERE / "manifest.json").read_text())

MIN_REPS = 3
#: Set-up probes run before each repetition: a seed-chosen count in this
#: range, so the set-up samples span the whole run like the repetitions.
PROBES_PER_REP = (2, 4)
CHILD_TIMEOUT_S = 150
#: Per-layer metrics that are counts and must repeat exactly.
COUNT_SUFFIXES = (".calls", ".checks", ".coeff_products", ".misses",
                  ".max_degree", ".max_coeff_bits", "cli.skipped")


class BenchError(RuntimeError):
    """A repetition did not produce a result."""


def spawn(*args: str) -> dict:
    """Run perfbench/child.py in a fresh interpreter; return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned_at = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--spawned-at", str(spawned_at), *args],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_reps(workload: str, seconds: float, trace: bool, rng: random.Random) -> tuple:
    """Run repetitions and set-up probes; return (reps, setup samples)."""
    spawn("--setup-only")  # discarded: byte-compiles src/ on a fresh checkout
    kinds = ["traced", "traced", "plain"] if trace else []
    rng.shuffle(kinds)
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    reps: list[dict] = []
    setup: list[float] = []
    durations: list[float] = []
    deadline = time.monotonic() + seconds
    while len(reps) < max(MIN_REPS, len(kinds)) or (
        time.monotonic() + statistics.median(durations) <= deadline
    ):
        i = len(reps)
        for _ in range(rng.randint(*PROBES_PER_REP)):
            setup.append(spawn("--setup-only")["setup_s"])
        kind = kinds[i] if i < len(kinds) else "plain"
        extra = ["--trace", str(SPANS_DIR / f"spans-{workload}-{i}.json")] if kind == "traced" else []
        t0 = time.monotonic()
        rep = spawn("--workload", workload, *extra)
        durations.append(time.monotonic() - t0)
        rep["kind"] = kind
        reps.append(rep)
    setup += [r["setup_s"] for r in reps]
    return reps, setup


def end_to_end(reps: list[dict], setup: list[float]) -> dict[str, list[float]]:
    plain = [r for r in reps if r["kind"] == "plain"]
    checks = [sum(len(i["report"]["results"]) for i in r["invocations"]) for r in plain]
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "checks_per_s": [c / r["wall_s"] for c, r in zip(checks, plain)],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


def per_layer(reps: list[dict], problems: list[str]) -> dict[str, list[float]]:
    traced = [r for r in reps if r["kind"] == "traced"]
    first, second = traced[0]["layers"], traced[1]["layers"]
    for name, value in first.items():
        if name.endswith(COUNT_SUFFIXES) and second[name] != value:
            problems.append(f"count {name} differs between traced runs: {value} != {second[name]}")
    samples = {name: [r["layers"][name] for r in traced] for name in first}
    plain_wall = statistics.median(r["wall_s"] for r in reps if r["kind"] == "plain")
    samples["trace.overhead_s"] = [r["wall_s"] - plain_wall for r in traced]
    return samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MANIFEST["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qcong" / "__init__.py").is_file():
        print(f"perfbench: no qcong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference = load_reference()[args.workload]
    try:
        reps, setup = run_reps(args.workload, args.seconds, bool(args.trace),
                               random.Random(args.seed))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = 0
    problems: list[str] = []
    for rep in reps:
        n, found = compare(reference, rep["invocations"])
        attempted += n
        problems += found
    wanted = MANIFEST["per_layer" if args.trace else "end_to_end"]
    samples = per_layer(reps, problems) if args.trace else end_to_end(reps, setup)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)} ({sum(r['kind'] == 'traced' for r in reps)} traced)  "
          f"set-up samples {len(setup)}")
    metrics = {}
    for m in wanted:
        values = samples[m["name"]]
        q1, med, q3 = quartiles(values)
        # a count repeats exactly; report it as the integer it is
        value = values[0] if len(set(values)) == 1 else med
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} median {med:.6g} {m['unit']}  "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        if not args.trace:
            print("    samples " + " ".join(f"{v:.6g}" for v in values))
    for p in problems[:20]:
        print(f"  FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
