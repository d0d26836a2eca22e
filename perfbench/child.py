"""One cold benchmark repetition: a fresh interpreter that runs one
workload's CLI invocations in order and prints one JSON line.

    python3 perfbench/child.py --workload NAME --spawned-at NS [--trace PATH]
    python3 perfbench/child.py --setup-only --spawned-at NS

The parent passes CLOCK_MONOTONIC (ns) taken just before the spawn, so
`setup_s` covers interpreter start-up plus `import qcong`.  Nothing but
the built-in sys and time is imported before qcong, or it would be
charged to set-up.  The
CLI's stdout is captured and parsed, never printed.  With --trace, the
public functions of each qcong module are wrapped where callers look
them up, and the spans go to PATH.
"""

import sys
import time

import qcong

_SETUP_DONE_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import qcong.cli as cli  # noqa: E402
import qcong.congruence as congruence  # noqa: E402
import qcong.poly as poly  # noqa: E402
import qcong.qanalogs as qanalogs  # noqa: E402
import qcong.statements as statements  # noqa: E402

from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent

#: check function -> statement id, for the `statements.<id>` spans.
CHECKS = {
    "check_clark": "clark",
    "check_classical": "classical",
    "check_cong2": "cong2",
    "check_convolution_identity": "convolution",
    "check_double_harmonic": "double_harmonic",
    "check_expansion_identity": "expansion",
    "check_jacobsthal": "jacobsthal",
    "check_power_reduction": "power_reduction",
    "check_q_ljunggren": "q_ljunggren",
    "check_q_wolstenholme": "q_wolstenholme",
    "check_qchu": "qchu",
    "check_shipan": "shipan",
}


def install(tracer: Tracer) -> None:
    """Wrap each traced function at every name the program calls it by."""
    Poly = poly.Poly
    mul = tracer.wrap("poly.mul", Poly.__mul__)
    counts = tracer.counts

    def counted_mul(a, b):
        counts["poly.mul.coeff_products"] += len(a.coeffs) * (
            len(b.coeffs) if isinstance(b, Poly) else 1
        )
        return mul(a, b)

    Poly.__mul__ = Poly.__rmul__ = counted_mul
    Poly.__add__ = Poly.__radd__ = tracer.wrap("poly.add", Poly.__add__)
    Poly.exact_div = tracer.wrap("poly.exact_div", Poly.exact_div)
    Poly.divrem_monic = tracer.wrap("poly.divrem_monic", Poly.divrem_monic)
    gcd = tracer.wrap("poly.gcd_primitive", poly.gcd_primitive)
    poly.gcd_primitive = congruence.gcd_primitive = gcd

    cached = qanalogs.q_binomial
    build = tracer.wrap("qanalogs.q_binomial", cached)

    def q_binomial(n, k):
        misses = cached.cache_info().misses
        result = build(n, k)
        if cached.cache_info().misses != misses and result.coeffs:
            counts["qanalogs.q_binomial.max_degree"] = max(
                counts["qanalogs.q_binomial.max_degree"], result.degree
            )
            counts["qanalogs.q_binomial.max_coeff_bits"] = max(
                counts["qanalogs.q_binomial.max_coeff_bits"],
                max(abs(c).bit_length() for c in result.coeffs),
            )
        return result

    qanalogs.q_binomial = statements.q_binomial = cli.q_binomial = q_binomial

    Ctx = congruence.CongruenceContext
    Ctx.reduce = tracer.wrap("congruence.reduce", Ctx.reduce)
    Ctx.frac_congruent = tracer.wrap("congruence.frac_congruent", Ctx.frac_congruent)
    for name in ("q_harmonic_sum", "q_double_harmonic"):
        fn = tracer.wrap("congruence.harmonic", getattr(congruence, name))
        setattr(congruence, name, fn)
        setattr(statements, name, fn)

    for fn_name, sid in CHECKS.items():
        setattr(statements, fn_name,
                tracer.wrap(f"statements.{sid}", getattr(statements, fn_name)))

    run_checks = tracer.wrap("cli.run_checks", cli.run_checks)

    def counted_run_checks(cfg):
        report = run_checks(cfg)
        counts["cli.checks"] += len(report.results)
        counts["cli.skipped"] += len(report.skipped)
        return report

    cli.run_checks = counted_run_checks
    cli.Report.to_json = tracer.wrap("cli.report", cli.Report.to_json)


def layer_metrics(tracer: Tracer, cache_info) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by name."""
    t = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}

    def take(span: str, fields: tuple[str, ...]) -> None:
        row = t.get(span, zero)
        for f in fields:
            out[f"{span}.{f}"] = row[f]

    take("poly.mul", ("calls", "s", "self_s"))
    out["poly.mul.coeff_products"] = tracer.counts["poly.mul.coeff_products"]
    take("poly.exact_div", ("calls", "self_s"))
    take("poly.divrem_monic", ("calls", "self_s"))
    take("poly.gcd_primitive", ("calls", "s", "self_s"))
    take("poly.add", ("calls", "self_s"))
    take("qanalogs.q_binomial", ("calls", "s", "self_s"))
    info = cache_info()
    out["qanalogs.q_binomial.misses"] = info.misses
    lookups = info.hits + info.misses
    out["qanalogs.q_binomial.hit_ratio"] = info.hits / lookups if lookups else 0.0
    for key in ("max_degree", "max_coeff_bits"):
        out[f"qanalogs.q_binomial.{key}"] = tracer.counts[f"qanalogs.q_binomial.{key}"]
    take("congruence.reduce", ("calls", "s"))
    take("congruence.frac_congruent", ("calls", "s"))
    take("congruence.harmonic", ("s",))
    for sid in sorted(CHECKS.values()):
        row = t.get(f"statements.{sid}", zero)
        out[f"statements.{sid}.checks"] = row["calls"]
        out[f"statements.{sid}.s"] = row["s"]
        out[f"statements.{sid}.self_s"] = row["self_s"]
    out["cli.run_checks.self_s"] = t.get("cli.run_checks", zero)["self_s"]
    out["cli.report.s"] = t.get("cli.report", zero)["s"]
    out["cli.checks"] = tracer.counts["cli.checks"]
    out["cli.skipped"] = tracer.counts["cli.skipped"]
    return out


def run_workload(invocations: list[list[str]], tracer: Tracer | None) -> dict:
    main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    captured = []
    t0 = time.perf_counter()
    for argv in invocations:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        captured.append((argv, code, buf))
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "invocations": [
            {"argv": argv, "exit_code": code, "report": json.loads(buf.getvalue())}
            for argv, code, buf in captured
        ],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--spawned-at", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans to this JSON file")
    args = ap.parse_args()

    src = HERE.parent / "src"
    if Path(qcong.__file__).resolve().parent.parent != src:
        print(f"qcong imported from {qcong.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = {"setup_s": (_SETUP_DONE_NS - args.spawned_at) / 1e9}
    if not args.setup_only:
        manifest = json.loads((HERE / "manifest.json").read_text())
        invocations = manifest["workloads"][args.workload]["invocations"]
        tracer = None
        if args.trace:
            tracer = Tracer()
            cache_info = qanalogs.q_binomial.cache_info
            install(tracer)
        out.update(run_workload(invocations, tracer))
        if tracer:
            out["layers"] = layer_metrics(tracer, cache_info)
            tracer.dump(args.trace)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
