"""CLI driver: exit codes, report structure, serialization round trips."""

from __future__ import annotations

import ast
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from conftest import shadow_binomial, shadow_image
from hypothesis import given, settings, strategies as hst

from qcong import congruence, statements
from qcong.cli import Report, RunConfig, _parse_p_values, main, run_checks
from qcong.poly import Poly
from qcong.qanalogs import modulus, q_binomial
from qcong.statements import STATEMENT_IDS


def test_parse_p_values():
    assert _parse_p_values("5,7,11") == [5, 7, 11]
    assert _parse_p_values("5..13") == [5, 6, 7, 8, 9, 10, 11, 12, 13]
    assert _parse_p_values(" 3 ") == [3]
    assert _parse_p_values("5,7,5") == [5, 7]
    with pytest.raises(ValueError):
        _parse_p_values("7..5")
    with pytest.raises(ValueError):
        _parse_p_values("x,y")
    with pytest.raises(ValueError):
        _parse_p_values(" , ")


def test_unknown_statement_is_a_usage_error(capsys):
    assert main(["check", "--statements", "bogus"]) == 2
    assert "unknown statements: bogus" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error():
    assert main(["check", "--nonsense"]) == 2
    assert main([]) == 2


def test_check_q_ljunggren_passes(capsys):
    code = main(["check", "--statements", "q_ljunggren", "--p", "5", "--a-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  q_ljunggren" in out
    assert "summary:" in out


def test_classical_p3_fails_without_flag(capsys):
    code = main([
        "check", "--statements", "classical", "--p", "3", "--a-max", "2",
        "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failing = [r for r in report["results"] if not r["passed"]]
    assert failing and not any(r["expected_failure"] for r in failing)
    assert report["summary"]["failed"] == len(failing)
    assert report["summary"]["expected_failures"] == 0


def test_classical_p3_counts_each_failure_once_without_flag(capsys):
    code = main(["check", "--statements", "classical", "--p", "3", "--a-max", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[expected failure]" not in out
    assert out.count("FAIL  classical") == 3
    assert "summary: 0 passed, 3 failed, 0 expected failures" in out


def test_classical_p3_tolerated_with_flag(capsys):
    code = main([
        "check", "--statements", "classical", "--p", "3", "--a-max", "2",
        "--negative-controls", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["summary"]["failed"] == 0
    assert report["summary"]["expected_failures"] > 0


def test_non_prime_p_is_skipped(capsys):
    code = main([
        "check", "--statements", "q_ljunggren", "--p", "4,5", "--a-max", "1",
        "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["summary"]["skipped"] == 1
    assert report["skipped"][0]["params"] == {"p": 4}
    assert "not prime" in report["skipped"][0]["reason"]


@pytest.mark.parametrize("p", ["", ","])
def test_empty_p_is_a_usage_error(capsys, p):
    assert main(["check", "--statements", "clark", "--p", p]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_a_run_of_skips_only_exits_zero(capsys):
    # SKIP means "does not apply", so a run that executes no check passes
    code = main(["check", "--statements", "clark", "--p", "4", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"] == [] and report["summary"]["skipped"] == 1


def test_small_primes_skipped_as_not_applicable(capsys):
    code = main([
        "check", "--statements", "shipan", "--p", "3,5", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["summary"]["passed"] == 1
    assert report["summary"]["skipped"] == 1


def test_b_max_caps_the_grid(capsys):
    code = main([
        "check", "--statements", "clark", "--p", "5", "--a-max", "4",
        "--b-max", "1", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(r["params"]["b"] <= 1 for r in report["results"])
    assert any(r["params"]["a"] == 4 for r in report["results"])


@pytest.mark.parametrize(
    "statement, k",
    [("clark", 3), ("q_ljunggren", 4), ("cong2", 4), ("q_wolstenholme", 4)],
)
def test_k_override_reaches_the_checks(capsys, statement, k):
    # cong2 is exact for a <= 2, so the grid runs to a = 3 to see it fail.
    code = main([
        "check", "--statements", statement, "--p", "5", "--a-max", "3",
        "--k-override", str(k), "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["results"]
    assert all(r["params"]["k"] == k for r in report["results"])
    assert any(not r["passed"] for r in report["results"])


def test_a_repeated_statement_id_is_run_and_echoed_once(capsys):
    # like --p, --statements drops repeats and keeps first-seen order
    code = main(["check", "--statements", "shipan,clark,shipan,clark", "--p", "5",
                 "--a-max", "1", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["config"]["statements"] == ["shipan", "clark"]
    assert Counter(r["statement"] for r in report["results"]) == {"clark": 3, "shipan": 1}


def test_k_override_without_a_k_statement_is_a_usage_error(capsys):
    code = main(["check", "--statements", "shipan", "--p", "5", "--k-override", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out
    assert ("--k-override applies only to clark, cong2, q_ljunggren, q_wolstenholme"
            in captured.err)


def test_k_override_applies_to_the_statements_that_take_it(capsys):
    code = main([
        "check", "--statements", "clark,shipan", "--p", "5", "--a-max", "2",
        "--k-override", "3", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 1  # clark fails modulo ([5]_q)^3 at (a, b) = (2, 1)
    ks = {r["statement"]: r["params"].get("k") for r in report["results"]}
    assert ks == {"clark": 3, "shipan": None}


def test_budget_exceeded_becomes_a_skip(capsys):
    code = main([
        "check", "--statements", "expansion", "--p", "2", "--a-max", "9",
        "--budget", "100", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["summary"]["skipped"] > 0
    assert report["summary"]["passed"] > 0
    for row in report["skipped"]:
        assert row["reason"] == f"(p+1)^a = {3 ** row['params']['a']} exceeds the budget 100"


@pytest.mark.parametrize("p, primes", [("7", 1), ("5..31", 9)])
def test_harmonic_statements_fill_the_sum_cache_once_per_prime(capsys, p, primes):
    # shipan (k = 1, 2), double_harmonic (k = 1) and power_reduction (k = 3)
    # share one build of each prime's sums
    congruence._harmonic_sums.cache_clear()
    code = main(["check", "--statements", "shipan,double_harmonic,power_reduction",
                 "--p", p, "--format", "json"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 3 * primes
    assert congruence._harmonic_sums.cache_info().misses == primes


def test_report_json_round_trip():
    cfg = RunConfig(
        statements=["classical", "convolution"],
        p_values=[3, 4, 5],
        a_max=2,
        negative_controls=True,
    )
    report = run_checks(cfg)
    assert json.loads(report.to_json()) == report._asdict()


def test_results_are_sorted_deterministically():
    cfg = RunConfig(statements=["convolution", "clark"], p_values=[7, 3, 5], a_max=1)
    report = run_checks(cfg)
    keys = [(r["statement"], tuple(sorted(r["params"].items()))) for r in report.results]
    assert keys == sorted(keys)


def test_summary_matches_tallies():
    cfg = RunConfig(statements=["classical"], p_values=[3, 5], a_max=2)
    report = run_checks(cfg)
    assert report.summary["passed"] == sum(1 for r in report.results if r["passed"])
    assert report.summary["failed"] == sum(1 for r in report.results if not r["passed"])
    assert report.summary["skipped"] == len(report.skipped)
    assert report.summary["errored"] == len(report.errored)


def test_text_and_json_agree(capsys):
    args = ["check", "--statements", "classical,convolution", "--p", "3,5", "--a-max", "2"]
    main(args + ["--format", "json"])
    report = json.loads(capsys.readouterr().out)
    main(args)  # text format
    text = capsys.readouterr().out
    for record in report["results"]:
        verdict = "PASS" if record["passed"] else "FAIL"
        needle = " ".join(f"{k}={v}" for k, v in sorted(record["params"].items()))
        assert any(
            line.startswith(verdict) and record["statement"] in line and needle in line
            for line in text.splitlines()
        ), record


GOLDEN_TEXT_REPORT = """\
q-congruence check report (created X)
PASS  clark            a=0 b=0 k=3 p=3  (X ms)
PASS  clark            a=0 b=0 k=3 p=13  (X ms)
PASS  clark            a=1 b=0 k=3 p=3  (X ms)
PASS  clark            a=1 b=0 k=3 p=13  (X ms)
PASS  clark            a=1 b=1 k=3 p=3  (X ms)
PASS  clark            a=1 b=1 k=3 p=13  (X ms)
PASS  clark            a=2 b=0 k=3 p=3  (X ms)
PASS  clark            a=2 b=0 k=3 p=13  (X ms)
FAIL  clark            a=2 b=1 k=3 p=3  (X ms)  witness(deg 5): 0 2 4 6 4 2
FAIL  clark            a=2 b=1 k=3 p=13  (X ms)  witness(deg 26): -14 0 0 0 0 0 0 0 0 0 0 0 0 28 0 0 ...
PASS  clark            a=2 b=2 k=3 p=3  (X ms)
PASS  clark            a=2 b=2 k=3 p=13  (X ms)
FAIL  classical        a=0 b=0 binom_ok=1 harmonic1_ok=0 harmonic2_ok=0 p=3  (X ms)  [expected failure]  witness(deg 0): 3
PASS  classical        a=0 b=0 binom_ok=1 harmonic1_ok=1 harmonic2_ok=1 p=13  (X ms)
FAIL  classical        a=1 b=0 binom_ok=1 harmonic1_ok=0 harmonic2_ok=0 p=3  (X ms)  [expected failure]  witness(deg 0): 3
PASS  classical        a=1 b=0 binom_ok=1 harmonic1_ok=1 harmonic2_ok=1 p=13  (X ms)
FAIL  classical        a=1 b=1 binom_ok=1 harmonic1_ok=0 harmonic2_ok=0 p=3  (X ms)  [expected failure]  witness(deg 0): 3
PASS  classical        a=1 b=1 binom_ok=1 harmonic1_ok=1 harmonic2_ok=1 p=13  (X ms)
FAIL  classical        a=2 b=0 binom_ok=1 harmonic1_ok=0 harmonic2_ok=0 p=3  (X ms)  [expected failure]  witness(deg 0): 3
PASS  classical        a=2 b=0 binom_ok=1 harmonic1_ok=1 harmonic2_ok=1 p=13  (X ms)
FAIL  classical        a=2 b=1 binom_ok=0 harmonic1_ok=0 harmonic2_ok=0 p=3  (X ms)  [expected failure]  witness(deg 0): 18
PASS  classical        a=2 b=1 binom_ok=1 harmonic1_ok=1 harmonic2_ok=1 p=13  (X ms)
FAIL  classical        a=2 b=2 binom_ok=1 harmonic1_ok=0 harmonic2_ok=0 p=3  (X ms)  [expected failure]  witness(deg 0): 3
PASS  classical        a=2 b=2 binom_ok=1 harmonic1_ok=1 harmonic2_ok=1 p=13  (X ms)
PASS  shipan           harmonic1_ok=1 harmonic2_ok=1 p=13  (X ms)
SKIP  clark            p=4  (p is not prime)
SKIP  classical        p=4  (p is not prime)
SKIP  shipan           p=3  (shipan needs p >= 5, got p=3)
SKIP  shipan           p=4  (p is not prime)
summary: 17 passed, 2 failed, 6 expected failures, 4 skipped, 0 errored
"""


def _mask_text(text: str) -> str:
    text = re.sub(r"\(created [^)]*\)", "(created X)", text)
    return re.sub(r"\(\d+\.\d ms\)", "(X ms)", text)


def test_text_report_is_pinned_byte_for_byte(capsys):
    # PASS, FAIL with a truncated witness, an expected failure and both
    # kinds of SKIP, each in its sorted place
    code = main([
        "check", "--statements", "classical,clark,shipan", "--p", "3,4,13",
        "--a-max", "2", "--k-override", "3", "--negative-controls",
    ])
    assert code == 1
    assert _mask_text(capsys.readouterr().out) == GOLDEN_TEXT_REPORT


def test_a_raising_check_becomes_an_error_row(capsys, monkeypatch):
    real = statements.check_qchu

    def check_qchu(m, n, k):
        if (m, n, k) == (1, 1, 1):
            raise RuntimeError("boom")
        return real(m, n, k)

    monkeypatch.setattr(statements, "check_qchu", check_qchu)
    args = ["check", "--statements", "qchu", "--a-max", "0"]
    assert main(args + ["--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["errored"] == [
        {"statement": "qchu", "params": {"m": 1, "n": 1, "k": 1}, "error": "RuntimeError('boom')"}
    ]
    assert report["summary"]["errored"] == 1 and report["summary"]["failed"] == 0
    assert {"m": 1, "n": 1, "k": 1} not in [r["params"] for r in report["results"]]
    assert main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "ERROR qchu             k=1 m=1 n=1  (RuntimeError('boom'))"
    assert lines[-1].endswith("0 skipped, 1 errored")


def test_error_rows_are_sorted_by_the_result_key(monkeypatch):
    # the grid nests m, n, k in that order; sorted params put k first
    def check_qchu(m, n, k):
        raise RuntimeError(f"boom {m}{n}{k}")

    monkeypatch.setattr(statements, "check_qchu", check_qchu)
    report = run_checks(RunConfig(statements=["qchu"], p_values=[5], a_max=0))
    keys = [tuple(sorted(e["params"].items())) for e in report.errored]
    assert len(keys) == report.summary["errored"] > 2 and keys == sorted(keys)


def test_closed_pipe_prints_no_traceback(tmp_path):
    # The JSON report (about 120 kB) overfills the pipe, so the write after
    # the reader hangs up fails with EPIPE.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcong", "check", "--statements", "qchu",
         "--a-max", "4", "--format", "json", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err
    assert json.loads(out.read_text())["summary"]["failed"] == 0


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "check", "--statements", "convolution", "--p", "2,3", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk["summary"]["failed"] == 0
    assert on_disk["config"]["output_path"] == str(out)


def test_json_out_serializes_the_report_once(tmp_path, capsys, monkeypatch):
    to_json = Report.to_json
    calls = []
    monkeypatch.setattr(Report, "to_json", lambda self: calls.append(1) or to_json(self))
    out = tmp_path / "report.json"
    code = main(["check", "--statements", "convolution", "--p", "2,3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    assert len(calls) == 1
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["check", "--statements", "clark", "--p", "5", "--a-max", "1"],
    ["all", "--p-max", "5", "--a-max", "1"],
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command):
    code = main(command + ["--out", str(tmp_path / "no" / "such" / "r.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: cannot write --out ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [
    # a 1 KB report fails when the file is closed, a 79 KB one on the write
    ["check", "--statements", "clark", "--p", "5", "--a-max", "1"],
    ["all", "--p-max", "7", "--a-max", "2"],
])
def test_a_failed_write_to_out_is_a_usage_error(capsys, command):
    code = main(command + ["--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: cannot write --out /dev/full: No space left on device\n"


@pytest.mark.parametrize("sid", STATEMENT_IDS)
def test_records_are_timed_and_named_by_the_driver(capsys, sid):
    main(["check", "--statements", sid, "--p", "5", "--a-max", "2", "--format", "json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert results
    for record in results:
        assert record["statement"] == sid
        assert isinstance(record["elapsed_ms"], float) and record["elapsed_ms"] >= 0.0


def test_reduce_small_case(capsys):
    code = main(["reduce", "--n", "4", "--k", "2", "--p", "2", "--power", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coefficients: [2]" in out


def test_reduce_trivial_binomial(capsys):
    code = main(["reduce", "--n", "5", "--k", "0", "--p", "5", "--power", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coefficients: [1]" in out


def test_reduce_central_example(capsys):
    code = main(["reduce", "--n", "26", "--k", "13", "--p", "13", "--power", "3"])
    out = capsys.readouterr().out
    assert code == 0
    coeff_line = next(l for l in out.splitlines() if "coefficients:" in l)
    got = ast.literal_eval(coeff_line.split("coefficients:")[1].strip())
    rhs = Poly([1]) + Poly.monomial(169) - 14 * (Poly.monomial(13) - 1) ** 2
    expected = rhs.divrem_monic(modulus(13, 3))[1]
    assert got == list(expected.coeffs)
    assert "(mod 13^3): 2" in out


def _reduce(n: int, k: int, p: int, power: int) -> tuple[list[int], str]:
    """The coefficients and the q = 1 line that `qcong reduce` prints."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["reduce", "--n", str(n), "--k", str(k), "--p", str(p),
                     "--power", str(power)])
    assert code == 0
    lines = out.getvalue().splitlines()
    return ast.literal_eval(lines[1].split("coefficients:")[1].strip()), lines[3]


@settings(max_examples=150, deadline=None)
@given(
    nk=hst.integers(0, 60).flatmap(lambda n: hst.tuples(hst.just(n), hst.integers(0, n))),
    p=hst.sampled_from([2, 3, 5, 7, 11, 13]),
    power=hst.integers(1, 4),
)
def test_reduce_matches_plain_division(nk, p, power):
    # the printed residue against C_q(n, k) divided by ([p]_q)^power with no
    # fold, its q = 1 line against math.comb, and both sides of the shadow
    n, k = nk
    coeffs, at_one = _reduce(n, k, p, power)
    assert coeffs == list(q_binomial(n, k).divrem_monic(modulus(p, power))[1].coeffs)
    assert at_one.endswith(f"(mod {p}^{power}): {math.comb(n, k) % p ** power}")
    assert shadow_image(Poly(coeffs), p, power) == shadow_binomial(n, k, p, power)


def test_reduce_past_the_division_oracle_matches_the_shadow():
    coeffs, _ = _reduce(200, 100, 7, 3)
    shadow = shadow_binomial(200, 100, 7, 3)
    assert shadow_image(Poly(coeffs), 7, 3) == shadow
    assert shadow_image(Poly(coeffs) + Poly.monomial(1), 7, 3) != shadow


def test_reduce_usage_errors(capsys):
    assert main(["reduce", "--n", "3", "--k", "5", "--p", "5"]) == 2
    assert main(["reduce", "--n", "5", "--k", "2", "--p", "4"]) == 2
    assert main(["reduce", "--n", "5", "--k", "2", "--p", "5", "--power", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, value, low", [
    ("--budget", "0", 1), ("--budget", "-3", 1), ("--a-max", "-1", 0),
])
def test_bounds_are_usage_errors_in_both_subcommands(capsys, flag, value, low):
    for command in (["all", "--p-max", "5"], ["check", "--statements", "expansion"]):
        assert main([*command, flag, value]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert f"argument {flag}: must be >= {low}, got {value}" in captured.err


def _option_help(help_text: str) -> dict[str, str]:
    """Each option's entry in argparse help, keyed by its first flag, with
    whitespace collapsed."""
    entries: dict[str, str] = {}
    flag = None
    for line in help_text.split("options:", 1)[1].splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].rstrip(",")
            entries[flag] = line
        elif flag:
            entries[flag] += " " + line
    return {f: " ".join(entry.split()) for f, entry in entries.items()}


def test_shared_options_have_the_same_help_in_check_and_all(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    helps = []
    for command in ("check", "all"):
        assert main([command, "--help"]) == 0
        helps.append(_option_help(capsys.readouterr().out))
    for flag in ("--a-max", "--budget", "--out", "--format", "--negative-controls"):
        assert helps[0][flag] == helps[1][flag], flag


def test_all_with_no_large_primes(capsys):
    code = main(["all", "--p-max", "4", "--a-max", "1", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["summary"]["failed"] == 0
    ran = {r["statement"] for r in report["results"]}
    assert "q_ljunggren" not in ran
    assert {"qchu", "expansion", "convolution", "clark"} <= ran


def test_all_small_run_passes(capsys):
    code = main(["all", "--p-max", "5", "--a-max", "2", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    ran = {r["statement"] for r in report["results"]}
    assert "q_ljunggren" in ran and "shipan" in ran and "jacobsthal" in ran
    assert report["summary"]["failed"] == 0
    assert report["summary"]["errored"] == 0


def test_all_grid_is_pinned(capsys):
    # Pins each statement's grid shape, smallest prime and control prime in
    # the curated catalog run, including jacobsthal's 0 < b < a filter.
    code = main([
        "all", "--p-max", "7", "--a-max", "2", "--negative-controls", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["summary"]["expected_failures"] == 6
    assert report["summary"]["skipped"] == 0
    counts = Counter(r["statement"] for r in report["results"])
    primes: dict[str, set[int]] = {}
    for r in report["results"]:
        if "p" in r["params"]:
            primes.setdefault(r["statement"], set()).add(r["params"]["p"])
    assert counts == {
        "clark": 24, "classical": 18, "cong2": 12, "convolution": 4,
        "double_harmonic": 2, "expansion": 24, "jacobsthal": 2,
        "power_reduction": 2, "q_ljunggren": 12, "q_wolstenholme": 2,
        "qchu": 216, "shipan": 2,
    }
    assert "qchu" not in primes
    for sid, used in primes.items():
        if sid in ("clark", "convolution", "expansion"):
            assert used == {2, 3, 5, 7}, sid
        elif sid == "classical":
            assert used == {3, 5, 7}, sid
        else:
            assert used == {5, 7}, sid


def test_exit_zero_iff_no_failures(capsys):
    code = main(["check", "--statements", "q_wolstenholme", "--p", "5,7"])
    capsys.readouterr()
    assert code == 0


def test_witness_is_truncated_in_reports(capsys):
    main([
        "check", "--statements", "clark", "--p", "13", "--a-max", "2",
        "--k-override", "3", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    failing = [r for r in report["results"] if not r["passed"]]
    assert failing
    for r in failing:
        w = r["witness_truncated"]
        assert len(w["coefficients"]) <= 16
        assert w["degree"] >= 0


def test_q_binomial_exposed_for_drivers():
    # the plain division that the reduce command's fold must agree with:
    # remainder value at q=1 matches the integer congruence residue
    rem = q_binomial(10, 5).divrem_monic(modulus(5, 3))[1]
    assert rem.eval_at_one() % 125 == 252 % 125


KNOWN = ("clark, classical, cong2, convolution, double_harmonic, expansion, jacobsthal, "
         "power_reduction, q_ljunggren, q_wolstenholme, qchu, shipan")


@pytest.mark.parametrize("argv, err", [
    (["check", "--statements", "bogus,clark"],
     f"error: unknown statements: bogus\nknown statements: {KNOWN}\n"),
    (["check", "--statements", ","], "error: no statements requested\n"),
    (["check", "--statements", "clark", "--p", ""], "error: bad --p value: no values in ''\n"),
    (["check", "--statements", "clark", "--p", "5..3"],
     "error: bad --p value: empty range '5..3'\n"),
    (["check", "--statements", "shipan", "--p", "5", "--k-override", "4"],
     "error: --k-override applies only to clark, cong2, q_ljunggren, q_wolstenholme\n"),
    (["check", "--statements", "clark", "--out", "{missing}"],
     "error: cannot write --out {missing}: No such file or directory\n"),
    (["all", "--out", "{missing}"],
     "error: cannot write --out {missing}: No such file or directory\n"),
    (["reduce", "--n", "3", "--k", "5", "--p", "5"], "error: need 0 <= k <= n, got n=3, k=5\n"),
    (["reduce", "--n", "10", "--k", "3", "--p", "4"], "error: p must be prime, got 4\n"),
], ids=["unknown-statement", "no-statements", "empty-p", "empty-range", "k-override",
        "check-out", "all-out", "reduce-k", "reduce-p"])
def test_usage_errors_are_pinned_byte_for_byte(tmp_path, capsys, argv, err):
    missing = str(tmp_path / "no" / "such" / "r.json")
    code = main([arg.replace("{missing}", missing) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err.replace("{missing}", missing))
