"""Command-line front end: parameter sweeps, verification suites, reports.

Exit codes: 0 success, 1 property failure, 2 usage error, 3 numeric failure.
JSON artifacts carry a `data` block (byte-stable for a fixed seed/config)
and a separate `metadata` block holding the timestamp and invocation (and,
for verify-all, the seconds each suite took).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import bootstrap as bs
from . import closed_form as cf
from . import expsum as es
from . import flat_kernel as fk
from . import mode_ode as mo
from . import polytensor as pt
from . import symbols as sy
from . import verify
from .closed_form import ParameterError
from .expsum import NumericError


class UsageError(Exception):
    pass


def _fraction(text, option):
    """Exact rational from a decimal string ('0.05' -> 1/20)."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{option}: {text!r} is not a rational number "
                         "(expected e.g. 0.05, -1/20 or 2)") from None


def _emit(args, data, rows=None, header=None, metadata=None):
    """Write the result document (CSV for rows under --format csv, else
    JSON); metadata adds entries to the JSON metadata block."""
    if rows is not None and args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        doc = {
            "metadata": {
                "command": args.command,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                **(metadata or {}),
            },
            "data": data,
        }
        text = json.dumps(doc, indent=1, sort_keys=True, default=_json_default)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


# Options that several commands read, with their defaults.
SHARED = {"format": dict(choices=("json", "csv"), default="json"),
          "seed": dict(type=int, default=0),
          "jobs": dict(type=int, default=1),
          "n": dict(type=int), "k": dict(type=int), "t": dict(default="0"),
          "j": dict(type=int)}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token starting with '-' and a digit,
    such as -1/20 or -0.25,0.2, as a value; argparse's own pattern takes
    only forms like -1 and -0.1.  No conespec option looks like that, and
    the subcommand parsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser():
    p = _Parser(
        prog="conespec",
        description="Indicial spectra on cones, power-sum inequalities, "
                    "and decay-order bookkeeping")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        """A subcommand with --out, --config and the named SHARED options."""
        q = sub.add_parser(name, help=help)
        q.add_argument("--out")
        q.add_argument("--config", help="JSON object of option values; "
                                        "flags win")
        for opt in shared:
            q.add_argument("--" + opt, **SHARED[opt])
        return q

    q = command("exceptional", "exceptional integer growth rates",
                "format", "n", "k")
    q.add_argument("--j-max", type=int, default=10)
    q.add_argument("--operator", choices=("laplacian-power", "gauge"),
                   default="laplacian-power")
    q.add_argument("--window", type=int, nargs=2, default=(-12, 12))

    q = command("rates", "kernel rates of the gauge operators",
                "format", "n", "t", "j")
    q.add_argument("--family", choices=("typeI", "typeII"), default=None)

    q = command("gap", "essential linear growth gap scan", "format", "n", "t")
    q.add_argument("--j-max", type=int, default=10)

    q = command("kernel", "divergence-free rigidity nullspaces",
                "format", "n", "k")
    q.add_argument("--mode", choices=fk.MODES + ("quadratic-lie",),
                   default=None)

    q = command("symbol", "linearized operator symbols", "n", "k")
    q.add_argument("--xi", default=None, help="JSON vector")
    q.add_argument("--hhat", default=None, help="JSON matrix")
    q.add_argument("--scalar", action="store_true",
                   help="scalar-curvature symbol instead")

    q = command("apply", "apply an exact operator to a field", "t")
    q.add_argument("--op", choices=pt.OPCODES, default=None)
    q.add_argument("--field", default=None, help="JSON field document (path)")
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--index", type=int, default=0)

    command("modes", "probe a separated mode system",
            "format", "n", "k", "t", "j")

    q = command("three-annulus", "annulus growth/decay checks",
                "format", "seed", "n", "k", "t", "j")
    q.add_argument("--beta-prime-frac", type=float, default=0.45,
                   help="beta' as a fraction of beta (default %(default)s)")
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--turan-check", action="store_true")

    q = command("degenerate-scan",
                "scan for divergence-compatible degenerate modes",
                "format", "jobs", "n", "k")
    q.add_argument("--t-values", default=None,
                   help="comma-separated list, e.g. 0.05,-1/20")
    q.add_argument("--j-max", type=int, default=6)

    q = command("turan", "power-sum inequality checks", "seed")
    q.add_argument("--check", choices=("discrete", "integral",
                                       "three-interval", "sweep"),
                   default="sweep")
    q.add_argument("--d", type=int, default=None,
                   help="distinct exponents drawn (default 2)")
    q.add_argument("--m", type=int, default=None)
    q.add_argument("--trials", type=int, default=None)

    q = command("bootstrap", "decay-order induction", "format", "n", "k")
    q.add_argument("--regime", choices=("infinity", "origin"), default=None)
    q.add_argument("--beta0", type=float, default=0.3)
    q.add_argument("--sigma0", type=float, default=0.3)
    q.add_argument("--ladder", action="store_true",
                   help="also report the integrability ladder")

    q = command("verify-all", "run every invariant suite", "seed", "jobs")
    q.add_argument("--scale", type=float, default=1.0,
                   help="trial-count scale factor (default %(default)s)")
    q.add_argument("--suite", action="append", default=None,
                   help="restrict to named suites (repeatable)")

    return p


@functools.cache
def _parser():
    """The parser, built once per process: parsing never changes it."""
    return build_parser()


def _load_json(path, option):
    """The JSON document in the file an option names."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"{option} {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{option} {path}: not JSON ({exc})") from exc


def _config_argv(parser, given, argv):
    """argv with the --config file's options after the command name, so a
    flag wins.  Keys are options of the command: true is a bare flag, false
    none, a list the values of an nargs option or of repeats.  Keys the
    command line sets are left out, so its --suite replaces the file's."""
    conf = _load_json(given.config, "--config")
    if not isinstance(conf, dict):
        raise UsageError(f"--config {given.config}: need a JSON object of "
                         "option names to values")
    subparsers, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subparsers.choices[given.command]._actions}
    tokens = []
    for key, val in conf.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or not hasattr(given, action.dest):  # -h has none
            raise UsageError(f"--config {given.config}: {key!r} is not an "
                             f"option of {given.command}")
        opt = action.option_strings[0]
        if getattr(given, action.dest) != action.default:
            continue
        if isinstance(val, bool) and action.nargs == 0:
            tokens += [opt] if val else []
        elif isinstance(val, list) and action.nargs:
            tokens += [opt, *map(str, val)]
        else:  # the = form: a value starting with '-' is not an option
            tokens += [f"{opt}={v}" for v in
                       (val if isinstance(val, list) else [val])]
    return argv[:1] + tokens + argv[1:]


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise UsageError(f"missing required option(s): "
                         + ", ".join("--" + n for n in missing))


# -- command implementations ---------------------------------------------------


def cmd_exceptional(args):
    op = args.operator
    if op == "laplacian-power":
        _require(args, "n", "k")
        E = cf.polyharmonic_exceptional_values(args.n, args.k, args.window)
        data = {"operator": op, "n": args.n, "k": args.k,
                "window": list(E.window), "full_lattice": E.full_lattice,
                "values": E.values}
    else:
        _require(args, "n")
        E = cf.gauge_exceptional_values(args.n, args.j_max)
        data = {"operator": op, "n": args.n, "j_max": args.j_max,
                "values": E.values,
                "provenance": {str(v): E.provenance[v] for v in E.values}}
    rows = [(v, ";".join(E.provenance[v])) for v in E.values]
    _emit(args, data, rows=rows, header=("value", "provenance"))


def cmd_rates(args):
    _require(args, "n", "family", "j")
    rec = cf.modified_gauge_rates(args.n, args.t, args.family, args.j)
    t, roots = float(args.t), rec["roots"]
    data = {"n": args.n, "t": t, "family": args.family, "j": args.j,
            "roots": [{"re": z.real, "im": z.imag} for z in roots],
            "growth_orders": [{"re": z.real - 1, "im": z.imag} for z in roots],
            "non_geometric": rec["non_geometric"]}
    if args.t == 0:
        # the integer shifts that make up the exceptional set at t = 0
        rp = cf.gauge_kernel_rates(args.n, args.family, args.j)
        data["shifts"] = {k: [str(a), str(b)]
                          for k, (a, b) in rp.shifts.items()}
    rows = [(args.n, t, args.family, args.j, z.real, z.imag)
            for z in roots]
    _emit(args, data, rows=rows,
          header=("n", "t", "family", "j", "root_re", "root_im"))


def cmd_gap(args):
    _require(args, "n")
    rec = {**cf.essential_linear_gap(args.n, args.t, args.j_max),
           "t": float(args.t)}
    rows = [(w["order_re"], w["order_im"], w["distance"],
             "; ".join(w["labels"])) for w in rec["witnesses"]]
    _emit(args, rec, rows=rows,
          header=("order_re", "order_im", "distance", "labels"))


def cmd_kernel(args):
    _require(args, "n", "mode")
    if args.mode == "quadratic-lie":
        rec = fk.quadratic_lie_isomorphism(args.n)
        data = {"mode": args.mode, "n": args.n, "k": args.k,
                "dimension": rec["dimension"], "rank": rec["rank"],
                "invertible": rec["invertible"],
                "nullspace_dimension": rec["nullspace_dimension"]}
        ok = rec["invertible"]
    else:
        _require(args, "k")
        rec = fk.divergence_free_nullspace(args.n, args.k, args.mode)
        data = {"mode": args.mode, "n": args.n, "k": args.k,
                "unknowns": rec["unknowns"], "dimension": rec["dimension"]}
        ok = rec["dimension"] == 0
    _emit(args, data,
          rows=[(data["mode"], data["n"], data.get("k"), data["dimension"])],
          header=("mode", "n", "k", "dimension"))
    return 0 if ok else 1


def _json_array(text, option, dtype, shape, want):
    """numpy array of the given shape from a JSON option value; ``want``
    describes the expected value in the usage error."""
    try:
        arr = np.array(json.loads(text), dtype=dtype)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{option}: not JSON ({exc})") from exc
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape:
        raise UsageError(f"{option}: need {want}, got {text!r}")
    if not np.isfinite(arr).all():
        raise UsageError(f"{option}: need finite entries, got {text!r}")
    return arr


def cmd_symbol(args):
    _require(args, "n", "xi", "hhat")
    n = args.n
    xi = _json_array(args.xi, "--xi", float, (n,),
                     f"a JSON list of n = {n} numbers")
    hh = _json_array(args.hhat, "--hhat", complex, (n, n),
                     f"an n x n JSON matrix (n = {n})")
    if not np.array_equal(hh, hh.T):
        raise UsageError(f"--hhat: need a symmetric matrix, got {args.hhat!r}")
    # an overflow is reported as a RangeError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if args.scalar:
            val = complex(sy.symbol_at("scalar", n, xi, hh))
            data = {"n": args.n, "scalar": {"re": val.real, "im": val.imag}}
        else:
            _require(args, "k")
            val = sy.symbol_at("bach", n, xi, hh, args.k)
            data = {"n": args.n, "k": args.k,
                    "matrix_re": val.real.tolist(),
                    "matrix_im": val.imag.tolist()}
    if not np.isfinite(val).all():
        raise es.RangeError("symbol value overflowed the float range")
    _emit(args, data)


def cmd_apply(args):
    _require(args, "op", "field")
    try:
        field = pt.PolyTensor.from_json(_load_json(args.field, "--field"))
    except ValueError as exc:
        raise UsageError(f"--field {args.field}: {exc}") from exc
    try:
        out = pt.apply_operator(args.op, field, t=args.t, k=args.k,
                                index=args.index)
    except ValueError as exc:  # operator constraint on the field's shape
        raise UsageError(f"--op {args.op}: {exc}") from exc
    _emit(args, out.canonical().to_json())


def cmd_modes(args):
    _require(args, "n", "k", "j")
    basis, op = mo.tensor_mode_system(args.n, args.k, args.t, args.j)
    spec = mo.indicial_spectrum(op)
    t = float(args.t)
    data = {"n": args.n, "k": args.k, "t": t, "j": args.j,
            "m_ang": len(basis), "weight": str(op.weight),
            "order": op.order, "beta_j": spec.beta,
            "roots": spec.summary()["roots"],
            "low_confidence": spec.low_confidence}
    rows = [(args.n, args.k, t, args.j, r["re"], r["im"], r["mult"])
            for r in data["roots"]]
    _emit(args, data, rows=rows,
          header=("n", "k", "t", "j", "root_re", "root_im", "mult"))


def cmd_three_annulus(args):
    _require(args, "n", "k", "j")
    frac = args.beta_prime_frac
    basis, op = mo.tensor_mode_system(args.n, args.k, args.t, args.j)
    spec = mo.indicial_spectrum(op)
    if spec.beta is None:
        raise NumericError("mode has no nonzero-real-part roots")
    rec = mo.empirical_l0(spec, frac * spec.beta, trials=args.trials,
                          seed=args.seed, turan_check=args.turan_check)
    scan_rows = [(r["L"], sum(r["failures"].values())) for r in rec["scan"]]
    data = {"n": args.n, "k": args.k, "t": float(args.t), "j": args.j,
            "beta": spec.beta, "beta_prime": frac * spec.beta,
            "trials": args.trials, "L0": rec["L0"],
            "turan_bound": rec["turan_bound"],
            "low_confidence": spec.low_confidence,
            "scan": [{"L": L, "failures": f} for (L, f) in scan_rows]}
    _emit(args, data, rows=scan_rows, header=("L", "failures"))
    return 0 if rec["L0"] is not None else 1


def cmd_degenerate_scan(args):
    _require(args, "n", "k", "t-values")
    tvals = [_fraction(x, "--t-values")
             for x in str(args.t_values).split(",")]
    rep = mo.degenerate_scan(args.n, args.k, tvals, args.j_max, jobs=args.jobs)
    # the paper's claim (no finding at small t != 0) needs n > 2k; below
    # that the findings are reported but are not a failure
    rep["claim_applies"] = args.n > 2 * args.k
    rows = [(f["t"], f["j"], f["root"]["re"], f["root"]["im"], f["dimension"])
            for f in rep["findings"] + rep["witnesses_t0"]]
    _emit(args, rep, rows=rows,
          header=("t", "j", "root_re", "root_im", "dimension"))
    return 1 if rep["claim_applies"] and rep["findings"] else 0


# The options of ``turan`` each check reads; a check given another exits 2.
TURAN_READS = {"d": ("discrete", "integral", "three-interval"),
               "m": ("discrete",), "trials": ("sweep",)}


def cmd_turan(args):
    for opt, checks in TURAN_READS.items():
        if getattr(args, opt) is not None and args.check not in checks:
            raise UsageError(f"--{opt} is not read by --check {args.check} "
                             f"(only by {', '.join(checks)})")
    if args.trials is not None and args.trials < 1:
        raise UsageError(f"--trials: need trials >= 1, got {args.trials}")
    if args.check == "sweep":
        scale = args.trials / 10000.0 if args.trials is not None else 1.0
        recs = [check(seed=args.seed, scale=scale)
                for check in (verify.check_discrete_sweep,
                              verify.check_integral_sweep,
                              verify.check_three_interval_sweep)]
        ok = all(r["passed"] for r in recs)
        _emit(args, {"suites": recs, "all_passed": ok})
        return 0 if ok else 1
    rng = np.random.default_rng(args.seed)
    d = 2 if args.d is None else args.d
    if d < 1:
        raise UsageError(f"--d: need d >= 1, got {d}")
    if args.check == "discrete":
        m, _, z, c = es._draw_power_sum(rng, d)
        rec = es.turan_discrete(z, c, m if args.m is None else args.m)
    elif args.check == "integral":
        p = es.draw_expsum_table(rng, [d])
        rec = es.turan_integral(p, 1.0, 2.0)
    else:
        p = es.draw_expsum_table(rng, [d], re_range=(0.05, 2.0))
        rec = es.three_interval(p, 1.0, 1, "growth")
    _emit(args, rec)
    return 0 if rec["holds"] else 1


def cmd_bootstrap(args):
    _require(args, "regime", "n", "k")
    if args.regime == "infinity":
        start = args.beta0
        st = bs.bootstrap_infinity(args.n, args.k, start)
    else:
        start = args.sigma0
        st = bs.bootstrap_origin(args.n, args.k, start)
    data = {"regime": st.regime, "n": st.n, "k": st.k, "start": start,
            "terminal": st.terminal, "final_order": st.order,
            "barriers": [{"order": b[0], "mechanism": b[1]}
                         for b in st.barriers],
            "history": st.history}
    if args.ladder:
        data["ladder"] = bs.regularity_ladder(args.n, args.k)
    rows = [(h["step"], h["order"], h["mechanism"]) for h in st.history]
    _emit(args, data, rows=rows, header=("step", "order", "mechanism"))
    return 0 if st.order == st.terminal else 1


def cmd_verify_all(args):
    if not 0 < args.scale < math.inf:
        raise UsageError(f"--scale: need scale > 0, got {args.scale}")
    known = [fn.suite_name for fn in verify.SUITES]
    unknown = sorted(set(args.suite or ()) - set(known))
    if unknown:
        raise UsageError(f"unknown suite(s): {', '.join(unknown)}; known "
                         f"suites: {', '.join(known)}")
    names = [nm for nm in known if not args.suite or nm in args.suite]
    # numpy loads numpy.random on first use (about 11 ms): load it here,
    # before the first timed suite and before any worker is forked, so no
    # suite's seconds include it and the other commands never pay for it
    import numpy.random  # noqa: F401
    runs = mo.parallel_map(_run_one_suite,
                           [(nm, args.seed, args.scale) for nm in names],
                           args.jobs)
    recs = [rec for rec, _ in runs]
    rep = {"suites": recs, "all_passed": all(r["passed"] for r in recs),
           "seed": args.seed, "scale": args.scale}
    for rec in recs:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"[{status}] {rec['name']}", file=sys.stderr)
    _emit(args, rep, metadata={"suite_seconds": {
        rec["name"]: seconds for rec, seconds in runs}})
    return 0 if rep["all_passed"] else 1


def _run_one_suite(task):
    """One suite's record and its wall-clock seconds; the suite is looked up
    in verify.SUITES at call time, so a wrapper put there is the one run."""
    name, seed, scale = task
    suite, = (fn for fn in verify.SUITES if fn.suite_name == name)
    start = time.perf_counter()
    rec = suite(seed=seed, scale=scale)
    return rec, time.perf_counter() - start


COMMANDS = {
    "exceptional": cmd_exceptional,
    "rates": cmd_rates,
    "gap": cmd_gap,
    "kernel": cmd_kernel,
    "symbol": cmd_symbol,
    "apply": cmd_apply,
    "modes": cmd_modes,
    "three-annulus": cmd_three_annulus,
    "degenerate-scan": cmd_degenerate_scan,
    "turan": cmd_turan,
    "bootstrap": cmd_bootstrap,
    "verify-all": cmd_verify_all,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = parser.parse_args(_config_argv(parser, args, argv))
        # the SHARED options' values, checked once for every command
        if "t" in args:
            args.t = _fraction(args.t, "--t")
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"--jobs: need jobs >= 1, got {args.jobs}")
        rc = COMMANDS[args.command](args)
        return 0 if rc is None else rc
    except (UsageError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
