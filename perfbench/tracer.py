"""Spans and counts recorded from outside conespec.

The library carries no instrumentation.  `Tracer.install` replaces each
traced function at every place it is looked up: the defining module or
class, every conespec module that imported it by name, and, for the
invariant suites, the `verify.SUITES` list.  `uninstall` puts the originals
back.  Spans and counts stay in memory until the run writes them out.

Self time is a span's duration minus the time covered by its child spans.
Pool workers created by fork inherit the installed wrappers; each finished
scan cell appends that worker's records to a spool file, and the parent
merges them when `degenerate_scan` returns, so the traced t-scan keeps its
two workers and still collects their spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import sys
import time
from collections import Counter
from fractions import Fraction

# (module, attribute) of every traced callable; span names are
# "<module>.<attribute>".
TARGETS = (
    ("cli", "main"),
    ("polytensor", "gauged_lin"),
    ("polytensor", "div_t"),
    ("polytensor", "PolyTensor.canonical"),
    ("polytensor", "AngularBasis.decompose"),
    ("polytensor", "slice_inner_reduced"),
    ("polytensor", "tensor_mode_basis"),
    ("linalg", "lagrange_coefficients"),
    ("linalg", "det_dense"),
    ("linalg", "poly_squarefree_factors"),
    ("linalg", "sparse_rref"),
    ("mode_ode", "probe_euler"),
    ("mode_ode", "tensor_mode_system"),
    ("mode_ode", "scalar_mode_system"),
    ("mode_ode", "divergence_mode_system"),
    ("mode_ode", "indicial_spectrum"),
    ("mode_ode", "RadialGram.gram"),
    ("mode_ode", "RadialGram.norm_sq"),
    ("mode_ode", "three_annulus_verify"),
    ("mode_ode", "degenerate_scan"),
    ("mode_ode", "_scan_one_mode"),
    ("expsum", "three_interval"),
    ("expsum", "turan_integral"),
    ("expsum", "turan_discrete"),
    ("expsum", "l2_integral"),
    ("flat_kernel", "divergence_free_nullspace"),
    ("flat_kernel", "quadratic_flow_error"),
)

PROBE = "mode_ode.probe_euler"
CANONICAL = "polytensor.PolyTensor.canonical"
SCAN = "mode_ode.degenerate_scan"
SCAN_CELL = "mode_ode._scan_one_mode"
IMAGE_OPS = ("polytensor.gauged_lin", "polytensor.div_t")
MODE_SYSTEMS = ("mode_ode.tensor_mode_system", "mode_ode.scalar_mode_system")
BOUND_ARGS = (PROBE, SCAN) + MODE_SYSTEMS  # hooks that read call arguments


def _den_bits(c):
    den = getattr(c, "denominator", None)
    if den is None:  # float coefficient
        den = Fraction(c).denominator
    return den.bit_length()


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.worker = False
        self.op = None
        self._stack = []  # [name, span id, start, child seconds]
        self._depth = Counter()
        self._next_id = 1
        self._installed = []
        self._reset()

    def _reset(self):
        self.stats = {}  # name -> [calls, inclusive seconds, self seconds]
        self.counts = Counter()
        self.maxima = {}
        self.minima = {}
        self.modes = set()  # (op, system, n, k, j)
        self.spans = []  # (op, id, parent id, name, start, end)

    # -- installing ---------------------------------------------------

    def install(self):
        import conespec.cli  # noqa: F401  (loads every conespec module)
        from conespec import verify

        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "conespec" and m is not None]
        for modname, attr in TARGETS:
            module = sys.modules["conespec." + modname]
            owner, leaf = module, attr
            if "." in attr:
                cls, leaf = attr.split(".")
                owner = getattr(module, cls)
            original = getattr(owner, leaf)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            self._set(owner, leaf, wrapper)
            if owner is module:  # also every module that imported it by name
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._set(m, key, wrapper)
        self._suites = list(verify.SUITES)
        verify.SUITES[:] = [self._wrap("verify." + fn.suite_name, fn)
                            for fn in self._suites]

    def _set(self, owner, key, value):
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        from conespec import verify

        verify.SUITES[:] = self._suites
        for owner, key, old in reversed(self._installed):
            setattr(owner, key, old)
        self._installed = []

    # -- recording ----------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        sig = inspect.signature(fn) if name in BOUND_ARGS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, sig, args, kwargs)
        return wrapper

    def _call(self, name, fn, sig, args, kwargs):
        if os.getpid() != self.pid:
            self._become_worker()
        if name == CANONICAL and self._depth[PROBE]:
            self.counts["canonical_in_probe"] += 1
        if name in MODE_SYSTEMS:
            a = sig.bind(*args, **kwargs).arguments
            self.modes.add((self.op, name, a["n"], a["k"],
                            a.get("j", a.get("s"))))
        probe_mark = self.counts["canonical_in_probe"]
        parent = self._stack[-1][1] if self._stack else None
        frame = [name, self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._depth[name] += 1
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] -= 1
            dur = end - frame[2]
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[2] += dur - frame[3]
            if not self._depth[name]:
                st[1] += dur
            if self._stack:
                self._stack[-1][3] += dur
            self.spans.append((self.op, frame[1], parent, name, frame[2], end))
        self._after(name, sig, args, kwargs, out, dur, probe_mark)
        return out

    def _after(self, name, sig, args, kwargs, out, dur, probe_mark):
        if name in IMAGE_OPS and self._depth[PROBE]:
            terms = 0
            bits = 0
            for comp in out.comps.values():
                terms += len(comp)
                for c in comp.values():
                    bits = max(bits, _den_bits(c))
            self.counts["images"] += 1
            self.counts["image_terms"] += terms
            self.maxima["image_max_den_bits"] = max(
                self.maxima.get("image_max_den_bits", 0), bits)
        elif name == PROBE:
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            a = ba.arguments
            degrees = (len(a["probe_degrees"]) if a["probe_degrees"]
                       is not None else a["order"] + 1)
            self.counts["probe_columns"] += len(a["basis"]) * (
                degrees + bool(a["holdout"]))
            self.counts["probe_canonical"] += (
                self.counts["canonical_in_probe"] - probe_mark)
        elif name == "mode_ode.indicial_spectrum":
            self.counts["low_confidence"] += int(out.low_confidence)
            gaps = [abs(a.value - b.value)
                    for a, b in itertools.combinations(out.roots, 2)]
            if gaps:
                self.minima["min_root_gap"] = min(
                    gaps + [self.minima.get("min_root_gap", math.inf)])
        elif name == SCAN:
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            self.counts["scan_jobs_s"] += max(ba.arguments["jobs"] or 1, 1) * dur
            self.collect_workers()
        elif name == SCAN_CELL and self.worker:
            self._dump_worker()

    # -- fork workers -------------------------------------------------

    def _become_worker(self):
        self.worker = True
        self.pid = os.getpid()
        self._next_id = self.pid << 32
        self._reset()

    def _dump_worker(self):
        rec = {"stats": self.stats, "counts": dict(self.counts),
               "maxima": self.maxima, "minima": self.minima,
               "modes": [list(m) for m in self.modes], "spans": self.spans}
        path = os.path.join(self.spool_dir, f"{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        self._reset()

    def collect_workers(self):
        for fname in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, fname)
            with open(path) as fh:
                for line in fh:
                    self._merge(json.loads(line))
            os.remove(path)

    def _merge(self, rec):
        for name, (calls, incl, own) in rec["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += own
        self.counts.update(rec["counts"])
        for key, val in rec["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, val), val)
        for key, val in rec["minima"].items():
            self.minima[key] = min(self.minima.get(key, val), val)
        self.modes.update(tuple(m) for m in rec["modes"])
        self.spans.extend(tuple(s) for s in rec["spans"])

    # -- summaries ----------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def span_table(self):
        """Spans as compact rows plus the name table they index."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[op, sid, parent, index[name], round(start, 7), round(end, 7)]
                for op, sid, parent, name, start, end in self.spans]
        return {"names": names,
                "columns": ["op", "id", "parent", "name", "start", "end"],
                "rows": rows}
