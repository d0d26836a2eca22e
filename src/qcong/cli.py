"""Batch driver: select statements and parameter ranges, run the checks,
and emit human-readable or JSON reports.

Exit codes: 0 when every executed check passed (expected failures under
--negative-controls do not count; a run whose every instance is skipped
passes too, since a skip means "does not apply"), 1 when any check failed
or errored, 2 on usage errors: argparse's own, or one UsageError that main reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from time import perf_counter
from typing import Callable, Iterator

from . import statements as st
from .poly import Poly
from .qanalogs import is_prime

REPORT_VERSION = "1.0"
WITNESS_COEFF_CAP = 16


class UsageError(Exception):
    """A request refused before any check runs; main prints it and exits 2."""


@dataclass
class RunConfig:
    """Echoable description of one batch run."""

    statements: list[str]
    p_values: list[int]
    a_max: int = 4
    b_max: int | None = None
    k_override: int | None = None
    budget: int = 10**6
    output_path: str | None = None
    format: str = "text"
    negative_controls: bool = False
    # True when the p list was given explicitly: every requested prime is
    # then instantiated and inapplicable statements surface as skips.  The
    # curated 'all' run sets this False and only instantiates applicable
    # combinations.
    explicit_p: bool = True


@dataclass
class Report:
    """Ordered collection of check outcomes plus run metadata.

    Every instance is one plain dict row, ``{"statement", "params", ...}``.
    A result row adds ``passed``, ``expected_failure``, ``witness_truncated``
    and ``elapsed_ms``; a skip row adds ``reason``, an error row ``error``.
    ``expected_failure`` marks a failing negative control, and only in a run
    with --negative-controls; anywhere else a failure is a failure.
    """

    version: str
    created: str
    config: dict
    results: list[dict]
    skipped: list[dict]
    errored: list[dict]
    summary: dict[str, int]

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2)

    def render_text(self) -> str:
        lines = [f"q-congruence check report (created {self.created})"]
        for r in self.results:
            tail = "  [expected failure]" if r["expected_failure"] else ""
            if (w := r["witness_truncated"]) is not None:
                coeffs = " ".join(str(c) for c in w["coefficients"])
                tail += f"  witness(deg {w['degree']}): {coeffs}"
                if w["degree"] + 1 > len(w["coefficients"]):
                    tail += " ..."
            verdict = "PASS" if r["passed"] else "FAIL"
            lines.append(_line(verdict, r, f"{r['elapsed_ms']:.1f} ms") + tail)
        lines += [_line("SKIP", s, s["reason"]) for s in self.skipped]
        lines += [_line("ERROR", e, e["error"]) for e in self.errored]
        c = self.summary
        lines.append(
            f"summary: {c['passed']} passed, {c['failed']} failed, "
            f"{c['expected_failures']} expected failures, "
            f"{c['skipped']} skipped, {c['errored']} errored"
        )
        return "\n".join(lines)


def _line(verdict: str, row: dict, note: str) -> str:
    """One report line: the verdict, the row's statement and sorted params."""
    params = " ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
    return f"{verdict:<5} {row['statement']:<16} {params}  ({note})"


def _truncate_witness(witness: Poly | None) -> dict | None:
    if witness is None:
        return None
    return {
        "coefficients": list(witness.coeffs[:WITNESS_COEFF_CAP]),
        "degree": witness.degree,
    }


def _parse_p_values(text: str) -> list[int]:
    """Parse '5,7,11' or a range '5..13' into an integer list, dropping
    repeats and keeping first-seen order."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    values = list(dict.fromkeys(int(v) for v in text.split(",") if v.strip()))
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def _grid(entry: st.Statement, cfg: RunConfig) -> Iterator[dict[str, int]]:
    """Yield parameter dicts for the instances of one statement.

    A p that is not prime is yielded once, as {"p": p}, and _execute skips
    it.  With an explicit p list every prime is instantiated and
    out-of-scope combinations surface later as skips.  In the curated mode
    of 'all' only primes from the statement's ``min_p`` up are generated,
    plus its negative-control primes when those are requested.
    """
    if entry.grid == "mnk":
        top = cfg.a_max + 3
        for m in range(top + 1):
            for n in range(top + 1):
                for k in range(m + n + 1):
                    yield {"m": m, "n": n, "k": k}
        return
    b_cap = cfg.a_max if cfg.b_max is None else cfg.b_max
    for p in cfg.p_values:
        prime = is_prime(p)
        if prime and not cfg.explicit_p and not (
            p >= entry.min_p or (cfg.negative_controls and p in entry.control_primes)
        ):
            continue
        if entry.grid == "p" or not prime:
            yield {"p": p}
            continue
        for a in range(cfg.a_max + 1):
            for b in range(min(a, b_cap) + 1):
                if entry.grid == "pab" or 0 < b < a:
                    yield {"p": p, "a": a, "b": b}


def _execute(stmt: str, params: dict[str, int], cfg: RunConfig) -> dict:
    """Run one instance, timing only the check, and return its result row,
    named by its table key."""
    if "p" in params and not is_prime(params["p"]):
        raise st.PrecondViolationError("p is not prime")
    entry = st.STATEMENTS[stmt]
    settings = {"k": cfg.k_override, "budget": cfg.budget}
    kw = {name: settings[name] for name in entry.settings if settings[name] is not None}
    t0 = perf_counter()
    res = entry.run(**params, **kw)
    elapsed_ms = (perf_counter() - t0) * 1000.0
    expected = (
        cfg.negative_controls and params.get("p") in entry.control_primes and not res.passed
    )
    return {
        "statement": stmt,
        "params": res.params,
        "passed": res.passed,
        "expected_failure": expected,
        "witness_truncated": _truncate_witness(res.witness),
        "elapsed_ms": elapsed_ms,
    }


def run_checks(cfg: RunConfig) -> Report:
    """Run the cartesian product of statements and parameters, returning a
    report sorted by statement id and then parameters."""
    results: list[dict] = []
    skipped: list[dict] = []
    errored: list[dict] = []

    for stmt in sorted(set(cfg.statements)):
        for params in _grid(st.STATEMENTS[stmt], cfg):
            try:
                results.append(_execute(stmt, params, cfg))
            except st.PrecondViolationError as exc:
                skipped.append({"statement": stmt, "params": params, "reason": str(exc)})
            except Exception as exc:  # defensive: report, do not abort the batch
                errored.append({"statement": stmt, "params": params, "error": repr(exc)})

    for rows in (results, skipped, errored):
        rows.sort(key=lambda row: (row["statement"], sorted(row["params"].items())))

    summary = {
        "passed": sum(1 for r in results if r["passed"]),
        "failed": sum(1 for r in results if not r["passed"] and not r["expected_failure"]),
        "expected_failures": sum(1 for r in results if r["expected_failure"]),
        "skipped": len(skipped),
        "errored": len(errored),
    }
    return Report(
        version=REPORT_VERSION,
        created=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        config=asdict(cfg),
        results=results,
        skipped=skipped,
        errored=errored,
        summary=summary,
    )


def _run(args: argparse.Namespace, **fields) -> int:
    """Run the checks configured by fields and the options that check and
    all share, and print the report; write it to --out too, which is
    opened first so that an unwritable path fails before any check runs."""
    cfg = RunConfig(a_max=args.a_max, budget=args.budget, output_path=args.out,
                    format=args.format, negative_controls=args.negative_controls, **fields)
    try:
        out = open(cfg.output_path, "w", encoding="utf-8") if cfg.output_path else nullcontext()
    except OSError as exc:
        raise UsageError(f"cannot write --out {cfg.output_path}: {exc.strerror or exc}")
    with out:
        report = run_checks(cfg)
        as_json = report.to_json() if cfg.output_path or cfg.format == "json" else None
        # the file first, so that it is written even if stdout's reader hangs up
        if cfg.output_path:
            try:
                with out:  # closed here, so that a failed flush is reported too
                    out.write(as_json + "\n")
            except OSError as exc:
                raise UsageError(f"cannot write --out {cfg.output_path}: {exc.strerror or exc}")
    print(as_json if cfg.format == "json" else report.render_text())
    return 0 if report.summary["failed"] == 0 and report.summary["errored"] == 0 else 1


def cmd_check(args: argparse.Namespace) -> int:
    stmts = list(dict.fromkeys(s for s in args.statements.split(",") if s))
    if unknown := sorted(set(stmts) - set(st.STATEMENT_IDS)):
        raise UsageError(f"unknown statements: {', '.join(unknown)}\n"
                         f"known statements: {', '.join(st.STATEMENT_IDS)}")
    if not stmts:
        raise UsageError("no statements requested")
    try:
        p_values = _parse_p_values(args.p)
    except ValueError as exc:
        raise UsageError(f"bad --p value: {exc}")
    takes_k = any("k" in st.STATEMENTS[s].settings for s in stmts)
    if args.k_override is not None and not takes_k:
        raise UsageError(f"--k-override applies only to {_taking('k')}")
    return _run(args, statements=stmts, p_values=p_values, b_max=args.b_max,
                k_override=args.k_override)


def cmd_reduce(args: argparse.Namespace) -> int:
    if not (0 <= args.k <= args.n):
        raise UsageError(f"need 0 <= k <= n, got n={args.n}, k={args.k}")
    if not is_prime(args.p):
        raise UsageError(f"p must be prime, got {args.p}")
    rem = st.binomial_residue(args.n, args.k, args.p, args.power)
    print(f"q_binomial({args.n}, {args.k}) mod ([{args.p}]_q)^{args.power}:")
    print(f"  coefficients: {list(rem.coeffs)}")
    print(f"  polynomial:   {rem}")
    print(f"  value at q=1 (mod {args.p}^{args.power}): "
          f"{rem.eval_at_one() % args.p ** args.power}")
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    primes = [p for p in range(2, args.p_max + 1) if is_prime(p)]
    return _run(args, statements=list(st.STATEMENT_IDS), p_values=primes, explicit_p=False)


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integer options with a lower bound, so that both
    subcommands reject an out-of-range value alike, with exit code 2."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _taking(setting: str) -> str:
    """The ids of the statements that accept one run-wide setting."""
    return ", ".join(sid for sid, s in st.STATEMENTS.items() if setting in s.settings)


def build_parser() -> argparse.ArgumentParser:
    controls = ", ".join(
        f"{sid} at p={p}" for sid, s in st.STATEMENTS.items() for p in s.control_primes
    )
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact verification of q-analog binomial congruences over Z[q].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--a-max", type=_at_least(0), default=4)
    shared.add_argument("--budget", type=_at_least(1), default=10**6,
                        help="skip an instance of " + _taking("budget") + " whose "
                             "(p+1)^a exceeds this; a size proxy only, as its Chu "
                             "steps enumerate no composition")
    shared.add_argument("--out", default=None, help="write a JSON report to this path")
    shared.add_argument("--format", choices=("text", "json"), default="text")
    shared.add_argument("--negative-controls", action="store_true",
                        help=f"run the negative controls ({controls}); their "
                             "expected failures do not affect the exit code")

    check = sub.add_parser("check", parents=[shared],
                           help="run selected statements over a parameter grid")
    check.add_argument("--statements", required=True,
                       help="comma-separated ids from: " + ", ".join(st.STATEMENT_IDS))
    check.add_argument("--p", default="5,7,11,13",
                       help="primes as a comma list '5,7,11' or range '5..13'; "
                            "non-primes are skipped")
    check.add_argument("--b-max", type=_at_least(0), default=None)
    check.add_argument("--k-override", type=_at_least(1), default=None,
                       help="override the modulus exponent for " + _taking("k"))
    check.set_defaults(func=cmd_check)

    reduce_p = sub.add_parser("reduce",
                              help="print q_binomial(n, k) reduced modulo ([p]_q)^power")
    reduce_p.add_argument("--n", type=int, required=True)
    reduce_p.add_argument("--k", type=int, required=True)
    reduce_p.add_argument("--p", type=int, required=True)
    reduce_p.add_argument("--power", type=_at_least(1), default=3)
    reduce_p.set_defaults(func=cmd_reduce)

    all_p = sub.add_parser("all", parents=[shared], help="run the full statement catalog")
    all_p.add_argument("--p-max", type=_at_least(2), default=13)
    all_p.set_defaults(func=cmd_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize --help's 0 as well
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # reader hung up: let the flush at exit go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
