#!/usr/bin/env python3
"""conespec benchmark: four seeded workloads, timed end to end or traced.

    python3 perfbench/run.py --workload modes --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  modes         tensor_mode_system + indicial_spectrum, one distinct (n, k, j)
                per operation, checked against reference_modes.json
  t-scan        `conespec degenerate-scan` on a criterion-7-shaped grid
  annulus       empirical_l0 + confirming three_annulus_verify on cheap
                spectra, plus the three Turan sweeps of verify
  verify-quick  `conespec verify-all --scale 0.02`, one group of suites per
                operation

Every run executes a fixed list of operations drawn from --seed and sized
from --seconds (about that long on a 2-core x86 VM; verify-quick always
runs one whole pass).  The same seconds give the same operations in cost,
whatever the seed: the seed draws the order, the small t of each cell and
the random inputs, never which cells or suites run.  The same seed and
seconds give the same list, so the traced and untraced runs do the same
work and exact counts repeat.
--trace 0 reports the end-to-end metrics; --trace 1 wraps the library's
public functions (perfbench/tracer.py) and reports per-layer metrics.

The host's speed moves between a fast and a slow state about 1.6x apart,
for seconds to minutes at a time, so untraced runs time a fixed
exact-arithmetic loop (calibration_loop) all through the run (Calibrator)
and report every time metric at the reference speed: measured seconds x
CAL_REF_S / mean loop seconds near that operation.  The report also prints
the raw seconds and the speed factor.
The last stdout line is the JSON result; the report above it, and the
result file under perfbench/out/, carry every metric with its unit and
sample count.  Exit status is 1 when an output fails its check, 2 when
the conespec sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference_modes.json"

WORKLOADS = ("modes", "t-scan", "annulus", "verify-quick")

# Seconds one operation takes on the reference machine (2-core x86 VM,
# Python 3.11); sizes each run's operation list from --seconds.
NOMINAL_OP_S = {"modes": 0.8, "t-scan": 2.0, "annulus": 0.2,
                "verify-quick": 1.0}
SAFETY_S = 150.0  # no operation starts later, so a run ends within 180 s
SETUP_REPEATS = 3

# Calibration: calibration_loop takes about CAL_REF_S on the reference
# machine in its fast phase.  It runs every CAL_EVERY_S of the run (see
# Calibrator) and around each set-up process.
CAL_REF_S = 0.04
CAL_EVERY_S = 0.5
CAL_WINDOW_S = 1.0  # an operation is scaled by the loops this close to it
CAL_GAP_SAMPLES = 3  # between operations, when they run in pool workers

# Small non-integer t, the range of the paper's small-t statements.
SMALL_T = tuple(Fraction(s, d) for d in (20, 10, 7, 5, 4, 3, 2)
                for s in (1, -1))

# Timed `modes` cells (n, k, j), each probed once per run, and whether the
# cell runs at t = 0 (about 3x cheaper to probe, hence larger cells).  Each
# probe takes 0.5-1.2 s on the reference machine, so the median operation
# is one of many of about its size.  A run takes a prefix of MODES_DECK,
# which alternates the two kinds, so the mix depends on --seconds alone;
# the seed draws each small t and the order.
MODES_DECK = (((3, 1, 2), False), ((4, 1, 3), True), ((5, 1, 0), False),
              ((3, 3, 4), True), ((4, 1, 1), False), ((6, 3, 1), True),
              ((4, 2, 0), False), ((4, 2, 3), True), ((3, 3, 1), False),
              ((3, 1, 5), True), ((4, 3, 0), False), ((5, 1, 2), True),
              ((5, 2, 0), False), ((3, 3, 3), True), ((3, 1, 3), False),
              ((4, 3, 2), True))
# Integer t != 0 raises ProbeError at this commit (float fallback in
# gauged_lin).  Two such operations, on cells drawn from the deck, run in
# every modes run after the timed ones: they count in fail_frac but not in
# the timings or the trace, so fixing the defect does not read as a
# slowdown.
INTEGER_T = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))

# One annulus cycle: seven scalar Laplacian-power systems (n, s) and one
# tensor system (n, j = 1), all at t = 0 and free of zero-real-part roots.
ANNULUS_CYCLE = (("scalar", 3, 2), ("scalar", 4, 1), ("scalar", 5, 1),
                 ("scalar", 6, 2), ("scalar", 3, 3), ("scalar", 4, 3),
                 ("scalar", 5, 3), ("tensor", 5, 1))
ANNULUS_TRIALS = 200

# verify-quick runs one group of suites per operation, grouped by the layer
# they check.  Single suites take from 0.1 ms to 30 s, so a median over
# them would jump between unrelated suites from run to run.
VERIFY_GROUPS = (("expsum",), ("closed_form", "symbols", "bootstrap",
                               "flat_kernel"), ("polytensor",), ("mode_ode",))
VERIFY_SCALE = "0.02"


class Mismatch(Exception):
    """An operation's output failed its check."""


def need(cond, what):
    if not cond:
        raise Mismatch(what)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    timed: bool = True  # False: known-defect probe, run after the timed ones


# -- loading the program ---------------------------------------------------------


def load_conespec():
    """Import conespec from this checkout's src/, never from elsewhere."""
    if not (SRC / "conespec" / "__init__.py").is_file():
        print(f"perfbench: no conespec sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import conespec
    import conespec.cli  # noqa: F401
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401  (imported lazily by the library)

    if Path(conespec.__file__).resolve().parent != SRC / "conespec":
        print(f"perfbench: imported conespec from {conespec.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return conespec


def run_cli(argv):
    """conespec.cli.main in-process; returns (exit code, parsed document)."""
    from conespec import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    text = out.getvalue()
    return rc, (json.loads(text) if text.strip() else None)


# -- workloads ------------------------------------------------------------------


def _count(workload, seconds, limit=None):
    n = max(1, round(seconds / NOMINAL_OP_S[workload]))
    return n if limit is None else min(n, limit)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["entries"]


def modes_key(n, k, j, t):
    return f"n={n},k={k},j={j},t={t}"


def modes_ops(seed, seconds, reference):
    from conespec import mode_ode as mo

    rng = random.Random(seed)
    deck = MODES_DECK[:_count("modes", seconds, len(MODES_DECK))]
    cells = [(c, Fraction(0) if zero else rng.choice(SMALL_T))
             for c, zero in deck]
    rng.shuffle(cells)
    defects = [(c, rng.choice(INTEGER_T))
               for c in rng.sample([c for c, _ in MODES_DECK], 2)]

    def make(n, k, j, t, timed):
        key = modes_key(n, k, j, t)

        def run():
            basis, op = mo.tensor_mode_system(n, k, t, j)
            return op, mo.indicial_spectrum(op)

        def check(out):
            op, spec = out
            need(not any(isinstance(c, float) for row in op.P for p in row
                         for c in p), "P has float coefficients")
            need(spec.total_multiplicity == op.m_ang * op.order,
                 "sum of multiplicities != m_ang * order")
            if not timed:
                return
            ref = reference.get(key)
            need(ref is not None, f"no reference entry {key}")
            need([str(c) for c in op.det_poly()] == ref["det"],
                 "det P(z) differs from the reference")
            need(str(op.weight) == ref["weight"], "weight differs")
            need(op.m_ang == ref["m_ang"], "m_ang differs")
            need([r.multiplicity for r in spec.roots] == ref["mults"],
                 "root multiplicities differ")

        return Op(f"modes {key}", run, check, timed)

    return ([make(*c, t, True) for c, t in cells]
            + [make(*c, t, False) for c, t in defects])


def scan_jobs():
    return min(2, os.cpu_count() or 1)


def tscan_ops(seed, seconds):
    rng = random.Random(seed)
    jobs = scan_jobs()
    ops = []
    for _ in range(_count("t-scan", seconds)):
        ts = [Fraction(0)] + rng.sample(SMALL_T, 2)
        argv = ["degenerate-scan", "--n", "4", "--k", "1", "--j-max", "1",
                "--t-values", ",".join(str(t) for t in ts),
                "--jobs", str(jobs)]

        def check(out, ts=ts):
            rc, doc = out
            need(rc == 0, f"exit code {rc}")
            data = doc["data"]
            need(data["findings"] == [], "findings at t != 0")
            need(any(w["j"] == 0 and w["t"] == 0
                     for w in data["witnesses_t0"]),
                 "t = 0 witness at j = 0 missing")
            need(len(data["spectra"]) == 2 * len(ts), "spectra missing")
            need(all(s["beta"] is not None and s["beta"] > 0
                     for s in data["spectra"].values()), "beta <= 0")

        ops.append(Op("t-scan " + " ".join(argv[1:]),
                      lambda argv=argv: run_cli(argv), check))
    return ops


def annulus_ops(seed, seconds):
    from conespec import mode_ode as mo
    from conespec import verify

    rng = random.Random(seed)
    systems = [ANNULUS_CYCLE[i % len(ANNULUS_CYCLE)]
               for i in range(_count("annulus", seconds))]
    rng.shuffle(systems)
    ops = []
    for system in systems:
        seeds = [rng.randrange(2 ** 31) for _ in range(4)]

        def run(system=system, seeds=seeds):
            kind, n, j = system
            if kind == "tensor":
                _, op = mo.tensor_mode_system(n, 1, Fraction(0), j)
            else:
                _, op = mo.scalar_mode_system(n, 1, j)
            spec = mo.indicial_spectrum(op)
            bp = 0.45 * spec.beta
            rec = mo.empirical_l0(spec, bp, trials=ANNULUS_TRIALS,
                                  seed=seeds[0])
            confirm = None
            if rec["L0"] is not None:
                confirm = mo.three_annulus_verify(
                    spec, bp, rec["L0"], trials=ANNULUS_TRIALS,
                    seed=seeds[0], turan_check=True)
            sweeps = [verify.check_discrete_sweep(seed=seeds[1], scale=0.02),
                      verify.check_integral_sweep(seed=seeds[2], scale=0.005),
                      verify.check_three_interval_sweep(seed=seeds[3],
                                                        scale=0.02)]
            return rec, confirm, sweeps

        def check(out):
            rec, confirm, sweeps = out
            need(rec["L0"] is not None, "no L0 among the candidates")
            need(confirm["passed"], "confirming run failed")
            for s in sweeps:
                need(s["passed"], f"{s['name']} failed")

        label = "annulus {} n={} j={}".format(*system)
        ops.append(Op(label, run, check))
    return ops


def verify_ops(seed, seconds):
    """One operation per group of suites (VERIFY_GROUPS)."""
    from conespec import verify

    rng = random.Random(seed)
    groups = [[] for _ in VERIFY_GROUPS]
    for fn in verify.SUITES:
        module = fn.suite_name.split(".")[0]
        index = next(i for i, g in enumerate(VERIFY_GROUPS) if module in g)
        groups[index].append(fn.suite_name)
    rng.shuffle(groups)
    suite_seed = str(rng.randrange(100))
    ops = []
    for names in groups[:_count("verify-quick", seconds, len(groups))]:
        argv = ["verify-all", "--seed", suite_seed, "--scale", VERIFY_SCALE]
        for name in names:
            argv += ["--suite", name]

        def check(out, names=names):
            rc, doc = out
            need(rc == 0, f"exit code {rc}")
            suites = doc["data"]["suites"]
            need([s["name"] for s in suites] == names, "suites not run")
            failed = [s["name"] for s in suites if not s["passed"]]
            need(not failed and doc["data"]["all_passed"],
                 f"failed: {failed}")

        group = "+".join(sorted({n.split(".")[0] for n in names}))
        ops.append(Op(f"verify {group} seed={suite_seed}",
                      lambda argv=argv: run_cli(argv), check))
    return ops


def build_ops(workload, seed, seconds, reference=None):
    if workload == "modes":
        return modes_ops(seed, seconds,
                         load_reference() if reference is None else reference)
    if workload == "t-scan":
        return tscan_ops(seed, seconds)
    if workload == "annulus":
        return annulus_ops(seed, seconds)
    return verify_ops(seed, seconds)


# -- measuring -------------------------------------------------------------------


def calibration_loop():
    """Fixed exact-arithmetic work, like the library's core: products of
    polynomials with small rational coefficients, kept in a dict."""
    rng = random.Random(0)
    acc = {}
    for r in range(12):
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(30)]
        q = [Fraction(0)] * (2 * len(p) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(p):
                q[i + j] += a * b
        for i, c in enumerate(q):
            acc[r, i] = c
    return acc


def calibration_seconds():
    """One timed calibration_loop, with the cyclic collector off so that
    the objects the program keeps alive do not enter its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _calibration_worker(conn):
    """Runs one timed calibration loop per request until it receives None."""
    calibration_loop()  # touches the copy-on-write pages after the fork
    while conn.recv() is not None:
        conn.send(calibration_seconds())
    conn.close()


class Calibrator:
    """Times calibration_loop over the run; the mean of the loops run
    during an operation, or within CAL_WINDOW_S of it, gives the host's
    speed for that operation.  The host switches between a fast and a slow
    state every few seconds, so the mean of samples spread evenly over an
    operation tracks the share of its time spent slow.

    With jobs == 1 an interval timer runs the loop every CAL_EVERY_S inside
    the operations themselves; `inside` adds up the seconds it took, which
    run_op takes off the operation's time.  With jobs > 1 the work runs in
    pool workers, so CAL_GAP_SAMPLES samples are taken between operations
    instead, each the mean of one loop in each of `jobs` forked processes
    at once, one per pool worker.  start() and stop() bracket the run; stop()
    ends those processes."""

    def __init__(self, jobs=1):
        self.jobs = jobs
        self.samples = []
        self.stamps = []
        self.inside = 0.0
        self.workers = []

    def start(self):
        if self.jobs == 1:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
            return
        ctx = multiprocessing.get_context("fork")
        for _ in range(self.jobs):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_calibration_worker, args=(child,),
                               daemon=True)
            proc.start()
            child.close()
            self.workers.append((proc, conn))

    def stop(self):
        if self.jobs == 1:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            return
        for proc, conn in self.workers:
            with contextlib.suppress(OSError):
                conn.send(None)
            conn.close()
        for proc, _ in self.workers:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.workers = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._record(calibration_seconds())
        self.inside += time.perf_counter() - t0

    def _record(self, seconds):
        self.samples.append(seconds)
        self.stamps.append(time.perf_counter())

    def between(self):
        """Samples taken between operations; with jobs == 1 only before the
        first, as the timer takes over from there (and would otherwise
        fire inside a loop run here)."""
        if self.jobs == 1:
            if not self.samples:
                self._record(calibration_seconds())
            return
        for _ in range(CAL_GAP_SAMPLES):
            for _, conn in self.workers:
                conn.send(True)
            self._record(statistics.fmean(conn.recv()
                                          for _, conn in self.workers))

    def factor(self, start, end):
        """Reference seconds per measured second over [start, end]."""
        near = [s for s, t in zip(self.samples, self.stamps)
                if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
        return CAL_REF_S / statistics.fmean(near or self.samples)


def run_op(op, tracer, cal=None):
    """Runs and checks one operation; its seconds leave out the time the
    calibration timer took inside it."""
    if tracer is not None:
        tracer.op = op.label
    rec = {"label": op.label, "timed": op.timed}
    inside = cal.inside if cal is not None else 0.0
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is data, not a crash
        rec["status"] = "error"
        rec["detail"] = "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    rec["seconds"] = time.perf_counter() - t0
    if cal is not None:
        rec["seconds"] -= cal.inside - inside
    if "status" in rec:
        return rec
    try:
        op.check(out)
    except Exception as exc:
        rec["status"] = "mismatch"
        rec["detail"] = f"{type(exc).__name__}: {exc}"
    else:
        rec["status"] = "ok"
    return rec


def execute(ops, tracer=None, cal=None):
    """Run the operations in order, calibrating when `cal` is given (each
    record then carries `ref_seconds`, its seconds at the reference speed);
    returns the records and the wall time, the sum of the operations' own
    times."""
    records, spans = [], []
    start = time.perf_counter()
    if cal is not None:
        cal.start()
    try:
        for op in ops:
            if time.perf_counter() - start > SAFETY_S:
                print(f"perfbench: stopped after {SAFETY_S:.0f} s",
                      file=sys.stderr)
                break
            if cal is not None:
                cal.between()
            t0 = time.perf_counter()
            records.append(run_op(op, tracer, cal))
            spans.append((t0, time.perf_counter()))
        if cal is not None:
            cal.between()
    finally:
        if cal is not None:
            cal.stop()
    if cal is not None:
        for rec, span in zip(records, spans):
            rec["ref_seconds"] = rec["seconds"] * cal.factor(*span)
    return records, sum(r["seconds"] for r in records)


def measure_setup():
    """Seconds for a fresh interpreter to import conespec (with numpy and
    scipy) and finish its first call, each at the reference speed of the
    calibration loops run just before and just after it; returns their
    median and the raw seconds.  This process and the fresh ones are held
    to one CPU meanwhile, so that the loops time the CPU the fresh process
    runs on."""
    code = ("import sys; sys.path.insert(0, {src!r}); import numpy, "
            "scipy.integrate; from conespec import cli; "
            "sys.exit(cli.main(['modes', '--n', '3', '--k', '1', "
            "'--j', '0']))").format(src=str(SRC))
    times, scaled = [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(SETUP_REPEATS):
            loops = [calibration_seconds(), calibration_seconds()]
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError("setup process failed: "
                                   + proc.stderr[-500:])
            loops += [calibration_seconds(), calibration_seconds()]
            scaled.append(times[-1] * CAL_REF_S / statistics.fmean(loops))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), times


def tail(samples):
    """Highest of p99/p95/p90/p75 (nearest rank) with at least ten samples
    beyond it; the maximum when there are too few samples for any."""
    xs = sorted(samples)
    for q in (99, 95, 90, 75):
        idx = math.ceil(q / 100 * len(xs)) - 1
        if len(xs) - 1 - idx >= 10:
            return f"p{q}", xs[idx]
    return "max", xs[-1]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(records, wall, setup, n_cal):
    """Time metrics are at the reference speed (ref_seconds; measure_setup
    scales its own); the raw_ entries are as measured."""
    timed = [r for r in records if r["timed"]]
    done = [r for r in timed if r["status"] == "ok"]
    ref = [r["ref_seconds"] for r in done]
    failed = sum(r["status"] != "ok" for r in records)
    label, tail_s = tail(ref) if ref else ("max", 0.0)
    n = len(done)
    ref_wall = sum(r["ref_seconds"] for r in timed)

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    return {
        "ops_per_s": (n / ref_wall if ref_wall > 0 else 0.0, "1/s", f"n={n}"),
        "wall_s": (ref_wall, "s", f"{len(timed)} timed ops"),
        "op_p50_s": (median(ref), "s", f"n={n}"),
        "op_tail_s": (tail_s, "s", f"{label}, n={n}"),
        "fail_frac": (failed / len(records), "1",
                      f"{failed}/{len(records)}"),
        "setup_s": (setup[0], "s",
                    f"median of {len(setup[1])}: "
                    + " ".join(f"{x:.3f}" for x in setup[1]) + " raw s"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "max over process and children"),
        "speed_factor": (ref_wall / wall if wall > 0 else 0.0, "1",
                         f"wall_s / raw_wall_s, {n_cal} calibration loops"),
        "raw_wall_s": (wall, "s", "as measured"),
        "raw_op_p50_s": (median([r["seconds"] for r in done]), "s",
                         "as measured"),
    }


SELF_AND_CALLS = ("polytensor.gauged_lin", "polytensor.div_t",
                  "polytensor.PolyTensor.canonical",
                  "polytensor.AngularBasis.decompose", "linalg.det_dense",
                  "mode_ode.probe_euler", "mode_ode.RadialGram.norm_sq",
                  "mode_ode.three_annulus_verify", "expsum.three_interval")
SELF_ONLY = ("polytensor.slice_inner_reduced", "polytensor.tensor_mode_basis",
             "linalg.lagrange_coefficients", "linalg.poly_squarefree_factors",
             "linalg.sparse_rref", "mode_ode.indicial_spectrum",
             "mode_ode.RadialGram.gram", "expsum.turan_integral",
             "expsum.turan_discrete", "expsum.l2_integral",
             "flat_kernel.divergence_free_nullspace",
             "flat_kernel.quadratic_flow_error", "cli.main")


def per_layer(tr):
    from conespec import verify

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SELF_AND_CALLS:
        m[name + ".calls"] = (tr.calls(name), "count", "")
        m[name + ".self_s"] = (tr.self_s(name), "s", "")
    for name in SELF_ONLY:
        m[name + ".self_s"] = (tr.self_s(name), "s", "")
    c = tr.counts
    m["polytensor.image_terms"] = (
        ratio(c["image_terms"], c["images"]), "count",
        f"mean terms per probe image, {c['images']} images")
    m["polytensor.image_max_den_bits"] = (
        tr.maxima.get("image_max_den_bits", 0), "bits",
        "largest coefficient denominator in a probe image")
    m["polytensor.canonical_per_column"] = (
        ratio(c["probe_canonical"], c["probe_columns"]), "count",
        f"{c['probe_canonical']} canonical calls / "
        f"{c['probe_columns']} probe columns")
    m["mode_ode.probes_per_mode"] = (
        ratio(tr.calls("mode_ode.probe_euler"), len(tr.modes)), "count",
        f"probe_euler calls / {len(tr.modes)} distinct (op, n, k, j)")
    m["mode_ode.low_confidence"] = (c["low_confidence"], "count",
                                    "spectra flagged low_confidence")
    m["mode_ode.min_root_gap"] = (tr.minima.get("min_root_gap", 0.0), "1",
                                  "closest pair of distinct roots")
    m["mode_ode.degenerate_scan.parallel_eff"] = (
        ratio(tr.inclusive_s("mode_ode._scan_one_mode"), c["scan_jobs_s"]),
        "1", "serial cell seconds / (jobs x scan wall seconds)")
    for fn in verify.SUITES:
        name = "verify." + fn.suite_name
        m[name + ".s"] = (tr.inclusive_s(name), "s", "")
    return m


# -- reporting ----------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy

    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, reference=None):
    """One run; returns the full result document."""
    cal = setup = None
    if not trace:
        setup = measure_setup()
        cal = Calibrator(scan_jobs() if workload == "t-scan" else 1)
    ops = build_ops(workload, seed, seconds, reference)
    tracer = None
    spool = None
    if trace:
        from tracer import Tracer

        OUT.mkdir(exist_ok=True)
        spool = tempfile.mkdtemp(prefix="spool-", dir=OUT)
        tracer = Tracer(spool)
        tracer.install()
    try:
        records, wall = execute([op for op in ops if op.timed], tracer, cal)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.collect_workers()
            shutil.rmtree(spool, ignore_errors=True)
    # Known-defect probes run untimed and untraced; they count in fail_frac.
    records += execute([op for op in ops if not op.timed])[0]
    doc = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": int(bool(trace)), "environment": environment(),
           "ops": records, "wall_s": wall}
    if trace:
        doc["per_layer"] = per_layer(tracer)
        doc["spans"] = tracer.span_table()
    else:
        doc["end_to_end"] = end_to_end(records, wall, setup, len(cal.samples))
        doc["calibration_s"] = cal.samples
    doc["attempted"] = len(records)
    doc["failed"] = sum(r["status"] != "ok" for r in records)
    doc["correct"] = all(r["status"] == "ok" for r in records if r["timed"])
    return doc


def report(doc):
    env = doc["environment"]
    lines = [f"# {doc['workload']} seed={doc['seed']} seconds={doc['seconds']} "
             f"trace={doc['trace']} commit={env['commit'][:12]} "
             f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}"]
    for r in doc["ops"]:
        if r["status"] != "ok":
            tag = "known defect" if not r["timed"] else "FAILED"
            lines.append(f"  [{tag}] {r['label']}: {r['status']}: "
                         f"{r.get('detail', '')}")
    metrics = doc.get("end_to_end") or doc["per_layer"]
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:48s} {value:14.6g} {unit:6s} {note}")
    if doc["trace"]:
        lines.append(f"  {'traced wall_s':48s} {doc['wall_s']:14.6g} s")
        if "untraced_wall_s" in doc:
            lines.append(f"  {'tracing overhead':48s} "
                         f"{doc['tracing_overhead_s']:14.6g} s      "
                         f"traced wall_s - untraced wall_s "
                         f"({doc['untraced_wall_s']:.4g} s)")
        else:
            lines.append("  tracing overhead: run --trace 0 with the same "
                         "seed and seconds first")
    return lines


def result_line(doc):
    metrics = doc.get("end_to_end") or doc["per_layer"]
    out = {}
    for name, unit in declared_metrics(doc["trace"]).items():
        value, got_unit, _ = metrics[name]
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit} != declared {unit}")
        out[name] = {"value": value, "unit": unit}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": out}


def result_path(workload, seed, seconds, trace):
    return OUT / f"{workload}-seed{seed}-s{seconds}-trace{int(trace)}.json"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":  # one process per workload
        rc = 0
        for w in WORKLOADS:
            rc = max(rc, subprocess.run(
                [sys.executable, __file__, "--workload", w,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode)
        return rc
    load_conespec()
    doc = run_workload(args.workload, args.seed, args.seconds, args.trace)
    untraced = result_path(args.workload, args.seed, args.seconds, 0)
    if args.trace and untraced.is_file():
        with open(untraced) as fh:
            doc["untraced_wall_s"] = json.load(fh)["wall_s"]
        doc["tracing_overhead_s"] = doc["wall_s"] - doc["untraced_wall_s"]
    print("\n".join(report(doc)))
    OUT.mkdir(exist_ok=True)
    with open(result_path(args.workload, args.seed, args.seconds,
                          args.trace), "w") as fh:
        json.dump(doc, fh)
    sys.stdout.flush()
    print(json.dumps(result_line(doc)))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
