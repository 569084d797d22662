#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that each workload, traced and untraced, prints every metric that
BENCHMARK.json declares, with its declared unit, and that the report names
every end-to-end metric with its unit; and that a corrupted reference entry
and an injected exception each land in fail_frac instead of crashing the
run or passing.
"""

import contextlib
import io
import json
import numbers
import sys
from fractions import Fraction

import run

TINY = {"modes": 1.0, "t-scan": 1.0, "annulus": 1.0, "verify-quick": 1.0}
SEED = 2
REPORTED = {"ops_per_s": "1/s", "wall_s": "s", "op_p50_s": "s",
            "op_tail_s": "s", "fail_frac": "1", "setup_s": "s",
            "peak_rss_mb": "MB", "speed_factor": "1", "raw_wall_s": "s",
            "raw_op_p50_s": "s"}
# Per-layer metrics the traced report carries beyond BENCHMARK.json's list.
REPORTED_LAYERS = {
    "polytensor.div_t.self_s": "s", "linalg.sparse_rref.self_s": "s",
    "mode_ode.RadialGram.gram.self_s": "s",
    "mode_ode.RadialGram.norm_sq.self_s": "s",
    "mode_ode.three_annulus_verify.self_s": "s",
    "expsum.three_interval.self_s": "s", "expsum.turan_integral.self_s": "s",
    "expsum.turan_discrete.self_s": "s", "expsum.l2_integral.self_s": "s",
    "flat_kernel.divergence_free_nullspace.self_s": "s",
    "flat_kernel.quadratic_flow_error.self_s": "s", "cli.main.self_s": "s",
    "verify.mode_ode.multiplicity_and_beta.s": "s"}


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def main_lines(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv)
    lines = buf.getvalue().splitlines()
    return rc, lines[:-1], json.loads(lines[-1])


def check_printed(workload, trace):
    rc, report, res = main_lines(["--workload", workload, "--seed", str(SEED),
                                  "--seconds", str(TINY[workload]),
                                  "--trace", str(trace)])
    tag = f"{workload} trace={trace}"
    check(rc == 0, f"{tag}: exit code {rc}")
    check(list(res) == ["correct", "attempted", "failed", "metrics"],
          f"{tag}: result keys {list(res)}")
    check(res["correct"] is True and res["attempted"] >= 1, f"{tag}: {res}")
    declared = run.declared_metrics(trace)
    check(list(res["metrics"]) == list(declared), f"{tag}: metric names")
    for name, unit in declared.items():
        m = res["metrics"][name]
        check(m["unit"] == unit, f"{tag}: {name} unit {m['unit']}")
        check(isinstance(m["value"], numbers.Real)
              and not isinstance(m["value"], bool), f"{tag}: {name} value")
    names = REPORTED if not trace else {**declared, **REPORTED_LAYERS}
    for name, unit in names.items():
        check(any(line.split()[:1] == [name] and f" {unit} " in line + " "
                  for line in report), f"{tag}: {name} [{unit}] not reported")
    if trace:
        check(any(line.split()[:2] == ["tracing", "overhead"]
                  for line in report), f"{tag}: tracing overhead not reported")
    print(f"ok  {tag}: {len(res['metrics'])} metrics")


def baseline_failures():
    doc = run.run_workload("modes", SEED, TINY["modes"], 0)
    check(doc["correct"], "uncorrupted modes run is not correct")
    return doc


def check_corrupted_reference(base):
    ref = run.load_reference()
    ops = run.build_ops("modes", SEED, TINY["modes"], ref)
    key = ops[0].label.split(" ", 1)[1]
    det = ref[key]["det"]
    det[0] = str(Fraction(det[0]) + 1)
    doc = run.run_workload("modes", SEED, TINY["modes"], 0, reference=ref)
    bad = [r for r in doc["ops"] if r["status"] == "mismatch"]
    check(doc["failed"] == base["failed"] + 1, "corrupted entry not counted")
    check([r["label"] for r in bad] == [ops[0].label], f"mismatches {bad}")
    check(doc["correct"] is False, "corrupted entry passed")
    check(doc["end_to_end"]["fail_frac"][0] > base["end_to_end"]["fail_frac"][0],
          "fail_frac did not rise")
    print(f"ok  corrupted reference entry -> {bad[0]['detail']}")


def check_injected_exception(base):
    from conespec import mode_ode

    original = mode_ode.indicial_spectrum
    calls = []

    def flaky(op, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected failure")
        return original(op, *args, **kwargs)

    mode_ode.indicial_spectrum = flaky
    try:
        doc = run.run_workload("modes", SEED, TINY["modes"], 0)
    finally:
        mode_ode.indicial_spectrum = original
    errors = [r for r in doc["ops"] if "injected failure" in r.get("detail", "")]
    check(len(errors) == 1 and errors[0]["status"] == "error",
          "injected exception not recorded")
    check(doc["failed"] == base["failed"] + 1, "injected exception not counted")
    check(doc["correct"] is False, "injected exception passed")
    check(doc["end_to_end"]["fail_frac"][0] > base["end_to_end"]["fail_frac"][0],
          "fail_frac did not rise")
    print("ok  injected exception -> counted in fail_frac")


def main():
    run.load_conespec()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_printed(workload, trace)
    base = baseline_failures()
    check_corrupted_reference(base)
    check_injected_exception(base)
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
