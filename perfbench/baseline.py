#!/usr/bin/env python3
"""Re-measure ROADMAP's Baseline numbers; writes baseline/BENCH_baseline.json.

    python3 perfbench/baseline.py            # about two minutes on 2 cores

Records, with commit, Python, numpy and nproc:
  - tensor_mode_system(4, 1, 1/20, j) seconds for j = 0..6, with the
    indicial_spectrum and divergence-system seconds, and j = 6 at t = 0;
  - a traced j = 5 probe: the share of PolyTensor.canonical (is_zero calls
    included) and of the other traced layers;
  - mode_ode.multiplicity_and_beta seconds at --scale 0.1 and 0.02;
  - the medians and quartiles of the untraced result files under out/
    (run.py writes one per run) for each workload and --seconds value.
"""

import glob
import json
import statistics
import time
from collections import defaultdict
from fractions import Fraction

import run

OUT_FILE = run.BENCH / "baseline" / "BENCH_baseline.json"

# ROADMAP "Baseline (measured at this re-anchor)", single wall-clock runs.
ROADMAP = {
    "tensor_mode_system_4_1_1_20_s": [0.38, 0.84, 2.29, 3.92, 4.84, 5.57, 6.47],
    "j6_probe_t0_vs_t_nonzero_s": [2.9, 8.8],
    "j5_canonical_share": 0.67,
    "j5_is_zero_s_of_total": [6.9, 21.5],
    "multiplicity_and_beta_s_at_scale_0.1": 31.3,
}


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def per_j():
    from conespec import mode_ode as mo

    rows = []
    for j in range(7):
        (basis, op), probe_s = timed(mo.tensor_mode_system, 4, 1,
                                     Fraction(1, 20), j)
        _, spec_s = timed(mo.indicial_spectrum, op)
        _, div_s = timed(mo.divergence_mode_system, 4, Fraction(1, 20), j,
                         basis)
        rows.append({"j": j, "tensor_mode_system_s": probe_s,
                     "indicial_spectrum_s": spec_s,
                     "divergence_mode_system_s": div_s})
    _, t0_s = timed(mo.tensor_mode_system, 4, 1, Fraction(0), 6)
    return rows, t0_s


def profile_j5():
    from conespec import mode_ode as mo
    from tracer import Tracer

    tr = Tracer(spool_dir=None)  # no worker pool in a single probe
    tr.install()
    try:
        _, total = timed(mo.tensor_mode_system, 4, 1, Fraction(1, 20), 5)
    finally:
        tr.uninstall()
    layers = {name: {"calls": st[0], "inclusive_s": st[1], "self_s": st[2],
                     "self_share": st[2] / total}
              for name, st in sorted(tr.stats.items())}
    return {"traced_total_s": total,
            "canonical_share": tr.inclusive_s(
                "polytensor.PolyTensor.canonical") / total,
            "layers": layers}


def multiplicity_and_beta():
    from conespec import verify

    fn = next(f for f in verify.SUITES
              if f.suite_name == "mode_ode.multiplicity_and_beta")
    return {str(scale): timed(fn, seed=0, scale=scale)[1]
            for scale in (0.1, 0.02)}


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3}
    if median:
        out["iqr_share"] = (q3 - q1) / median
    return out


def workload_summary():
    groups = defaultdict(list)
    for path in sorted(glob.glob(str(run.OUT / "*-trace0.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        groups[(doc["workload"], doc["seconds"])].append(doc)
    out = []
    for (workload, seconds), docs in sorted(groups.items()):
        metrics = {name: quartiles([d["end_to_end"][name][0] for d in docs])
                   for name in docs[0]["end_to_end"]}
        out.append({"workload": workload, "seconds": seconds,
                    "seeds": sorted(d["seed"] for d in docs),
                    "failed": [d["failed"] for d in docs],
                    "attempted": [d["attempted"] for d in docs],
                    "metrics": metrics})
    return out


def main():
    run.load_conespec()
    rows, j6_t0 = per_j()
    doc = {"environment": run.environment(),
           "roadmap": ROADMAP,
           "tensor_mode_system_4_1_1_20": rows,
           "j6_probe_t0_s": j6_t0,
           "profile_j5": profile_j5(),
           "multiplicity_and_beta_s": multiplicity_and_beta(),
           "workloads": workload_summary()}
    OUT_FILE.parent.mkdir(exist_ok=True)
    with open(OUT_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: doc[k] for k in ("tensor_mode_system_4_1_1_20",
                                          "j6_probe_t0_s",
                                          "multiplicity_and_beta_s")},
                     indent=1))
    print("canonical share at j=5:", doc["profile_j5"]["canonical_share"])


if __name__ == "__main__":
    main()
