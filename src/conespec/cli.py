"""Command-line front end: parameter sweeps, verification suites, reports.

Exit codes: 0 success, 1 property failure, 2 usage error, 3 numeric failure.
JSON artifacts carry a `data` block (byte-stable for a fixed seed/config)
and a separate `metadata` block holding the timestamp and invocation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
from . import turan_constants, verify
from .closed_form import ParameterError
from .expsum import NumericError, PreconditionError


class UsageError(Exception):
    pass


def _fraction(text, option):
    """Exact rational from a decimal string ('0.05' -> 1/20)."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{option}: {text!r} is not a rational number "
                         "(expected e.g. 0.05, -1/20 or 2)") from None


def _emit(args, data, rows=None, header=None):
    """Write the result document (JSON, or CSV when rows are given)."""
    if args.format == "csv":
        if rows is None:
            raise UsageError("this command has no CSV form")
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


def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--config", default=None,
                   help="flat JSON key/value file; flags override it")


def build_parser():
    p = argparse.ArgumentParser(
        prog="conespec",
        description="Indicial spectra on cones, power-sum inequalities, "
                    "and decay-order bookkeeping")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("exceptional", help="exceptional integer growth rates")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--j-max", type=int, default=None)
    q.add_argument("--operator", choices=("laplacian-power", "gauge"),
                   default=None)
    q.add_argument("--window", type=int, nargs=2, default=None)
    _add_common(q)

    q = sub.add_parser("rates", help="kernel rates of the gauge operators")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--t", default=None)
    q.add_argument("--family", choices=("typeI", "typeII"), default=None)
    q.add_argument("--j", type=int, default=None)
    _add_common(q)

    q = sub.add_parser("gap", help="essential linear growth gap scan")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--t", default=None)
    q.add_argument("--j-max", type=int, default=None)
    _add_common(q)

    q = sub.add_parser("kernel", help="divergence-free rigidity nullspaces")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--mode", choices=fk.MODES + ("quadratic-lie",),
                   default=None)
    _add_common(q)

    q = sub.add_parser("symbol", help="linearized operator symbols")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--xi", default=None, help="JSON vector")
    q.add_argument("--hhat", default=None, help="JSON matrix")
    q.add_argument("--scalar", action="store_true",
                   help="scalar-curvature symbol instead")
    _add_common(q)

    q = sub.add_parser("apply", help="apply an exact operator to a field")
    q.add_argument("--op", choices=pt.OPCODES, default=None)
    q.add_argument("--field", default=None, help="JSON field document (path)")
    q.add_argument("--t", default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--index", type=int, default=None)
    _add_common(q)

    q = sub.add_parser("modes", help="probe a separated mode system")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--t", default=None)
    q.add_argument("--j", type=int, default=None)
    _add_common(q)

    q = sub.add_parser("three-annulus", help="annulus growth/decay checks")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--t", default=None)
    q.add_argument("--j", type=int, default=None)
    q.add_argument("--beta-prime-frac", type=float, default=None,
                   help="beta' as a fraction of beta (default 0.45)")
    q.add_argument("--trials", type=int, default=None)
    q.add_argument("--turan-check", action="store_true")
    _add_common(q)

    q = sub.add_parser("degenerate-scan",
                       help="scan for divergence-compatible degenerate modes")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--t-values", default=None,
                   help="comma-separated list, e.g. 0.05,-0.05")
    q.add_argument("--j-max", type=int, default=None)
    _add_common(q)

    q = sub.add_parser("turan", help="power-sum inequality checks")
    q.add_argument("--check", choices=("discrete", "integral",
                                       "three-interval", "sweep"),
                   default=None)
    q.add_argument("--d", type=int, default=None)
    q.add_argument("--m", type=int, default=None)
    q.add_argument("--trials", type=int, default=None)
    q.add_argument("--estimate", type=int, default=None,
                   help="estimate the discrete constant for this d")
    q.add_argument("--regenerate-constants", action="store_true")
    _add_common(q)

    q = sub.add_parser("bootstrap", help="decay-order induction")
    q.add_argument("--regime", choices=("infinity", "origin"), default=None)
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--beta0", type=float, default=None)
    q.add_argument("--sigma0", type=float, default=None)
    q.add_argument("--ladder", action="store_true",
                   help="also report the integrability ladder")
    _add_common(q)

    q = sub.add_parser("verify-all", help="run every invariant suite")
    q.add_argument("--scale", type=float, default=None,
                   help="trial-count scale factor (default 1.0)")
    q.add_argument("--suite", action="append", default=None,
                   help="restrict to named suites (repeatable)")
    _add_common(q)

    return p


def _apply_config(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            conf = json.load(fh)
        for key, val in conf.items():
            attr = key.replace("-", "_")
            if getattr(args, attr, None) is None:
                setattr(args, attr, val)
    # defaults after config merge
    if getattr(args, "seed", None) is None:
        args.seed = 0
    if getattr(args, "format", None) is None:
        args.format = "json"
    if getattr(args, "jobs", None) is None:
        args.jobs = 1
    return args


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise UsageError(f"missing required option(s): "
                         + ", ".join("--" + n for n in missing))


# -- command implementations ---------------------------------------------------


def cmd_exceptional(args):
    op = args.operator or "laplacian-power"
    if op == "laplacian-power":
        _require(args, "n", "k")
        window = tuple(args.window) if args.window else (-12, 12)
        E = cf.polyharmonic_exceptional_values(args.n, args.k, window=window)
        data = {"operator": op, "n": args.n, "k": args.k,
                "window": list(E.window), "full_lattice": E.full_lattice,
                "values": E.values}
        rows = [(v, ";".join(E.provenance[v])) for v in E.values]
    else:
        _require(args, "n")
        j_max = args.j_max or 10
        E = cf.gauge_exceptional_values(args.n, j_max)
        data = {"operator": op, "n": args.n, "j_max": j_max,
                "values": E.values,
                "provenance": {str(v): E.provenance[v] for v in E.values}}
        rows = [(v, ";".join(E.provenance[v])) for v in E.values]
    _emit(args, data, rows=rows, header=("value", "provenance"))


def cmd_rates(args):
    _require(args, "n", "family", "j")
    t = _fraction(args.t, "--t") if args.t is not None else Fraction(0)
    if t == 0:
        rp = cf.gauge_kernel_rates(args.n, args.family, args.j)
        roots = [complex(rp.plus), complex(rp.minus)]
        extra = {"shifts": {k: [str(a), str(b)] for k, (a, b)
                            in rp.shifts.items()}}
        if args.family == "typeII":
            rec = cf.modified_typeII_roots(args.n, 0.0, args.j)
            roots = [complex(z) for z in rec["roots"]]
    else:
        rec = cf.modified_gauge_rates(args.n, float(t), args.family, args.j)
        roots = [complex(z) for z in rec["roots"]]
        extra = {"non_geometric": [complex(z) for z in rec["non_geometric"]]}
    data = {"n": args.n, "t": float(t), "family": args.family, "j": args.j,
            "roots": [{"re": z.real, "im": z.imag} for z in roots],
            "growth_orders": [{"re": z.real - 1, "im": z.imag} for z in roots]}
    data.update(extra)
    rows = [(args.n, float(t), args.family, args.j, z.real, z.imag)
            for z in roots]
    _emit(args, data, rows=rows,
          header=("n", "t", "family", "j", "root_re", "root_im"))


def cmd_gap(args):
    _require(args, "n")
    t = float(_fraction(args.t, "--t")) if args.t is not None else 0.0
    j_max = args.j_max or 10
    rec = cf.essential_linear_gap(args.n, t, j_max)
    rows = [(w["order_re"], w["order_im"], w["distance"], w["label"])
            for w in rec["witnesses"]]
    _emit(args, rec, rows=rows,
          header=("order_re", "order_im", "distance", "label"))


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


def cmd_symbol(args):
    _require(args, "n", "xi", "hhat")
    xi = np.array(json.loads(args.xi), dtype=float)
    hh = np.array(json.loads(args.hhat), dtype=complex)
    if args.scalar:
        val = sy.linearized_scalar_symbol(args.n, xi, hh)
        data = {"n": args.n, "scalar": {"re": val.real, "im": val.imag}}
    else:
        _require(args, "k")
        out = sy.linearized_obstruction_symbol(args.n, args.k, xi, hh)
        data = {"n": args.n, "k": args.k,
                "matrix_re": out.real.tolist(),
                "matrix_im": out.imag.tolist()}
    _emit(args, data)


def cmd_apply(args):
    _require(args, "op", "field")
    try:
        with open(args.field) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--field {args.field}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"--field {args.field}: not JSON ({exc})") from exc
    field = pt.PolyTensor.from_json(doc)
    t = _fraction(args.t, "--t") if args.t is not None else Fraction(0)
    try:
        out = pt.apply_operator(args.op, field, t=t, k=args.k or 1,
                                index=args.index or 0)
    except ValueError as exc:  # operator constraint on the field's shape
        raise UsageError(f"--op {args.op}: {exc}") from exc
    _emit(args, out.canonical().to_json())


def cmd_modes(args):
    _require(args, "n", "k", "j")
    t = _fraction(args.t, "--t") if args.t is not None else Fraction(0)
    basis, op = mo.tensor_mode_system(args.n, args.k, t, args.j)
    spec = mo.indicial_spectrum(op)
    data = {"n": args.n, "k": args.k, "t": float(t), "j": args.j,
            "m_ang": len(basis), "weight": str(op.weight),
            "order": op.order, "beta_j": spec.beta,
            "roots": spec.summary()["roots"],
            "low_confidence": spec.low_confidence}
    rows = [(args.n, args.k, float(t), args.j, r["re"], r["im"], r["mult"])
            for r in data["roots"]]
    _emit(args, data, rows=rows,
          header=("n", "k", "t", "j", "root_re", "root_im", "mult"))


def cmd_three_annulus(args):
    _require(args, "n", "k", "j")
    t = _fraction(args.t, "--t") if args.t is not None else Fraction(0)
    frac = args.beta_prime_frac or 0.45
    trials = args.trials or 200
    basis, op = mo.tensor_mode_system(args.n, args.k, t, args.j)
    spec = mo.indicial_spectrum(op)
    if spec.beta is None:
        raise NumericError("mode has no nonzero-real-part roots")
    rec = mo.empirical_l0(spec, frac * spec.beta, trials=trials,
                          seed=args.seed, turan_check=args.turan_check,
                          slack=args.tolerance or 1e-9)
    scan_rows = [(r["L"], sum(r["failures"].values())) for r in rec["scan"]]
    data = {"n": args.n, "k": args.k, "t": float(t), "j": args.j,
            "beta": spec.beta, "beta_prime": frac * spec.beta,
            "trials": trials, "L0": rec["L0"],
            "turan_bound": rec["turan_bound"],
            "scan": [{"L": L, "failures": f} for (L, f) in scan_rows]}
    _emit(args, data, rows=scan_rows, header=("L", "failures"))
    return 0 if rec["L0"] is not None else 1


def cmd_degenerate_scan(args):
    _require(args, "n", "k", "t-values")
    tvals = [_fraction(x, "--t-values")
             for x in str(args.t_values).split(",")]
    j_max = args.j_max if args.j_max is not None else 6
    rep = mo.degenerate_scan(args.n, args.k, tvals, j_max,
                             tol=args.tolerance or 1e-9, jobs=args.jobs)
    rows = [(f["t"], f["j"], f["root"]["re"], f["root"]["im"], f["dimension"])
            for f in rep["findings"] + rep["witnesses_t0"]]
    _emit(args, rep, rows=rows,
          header=("t", "j", "root_re", "root_im", "dimension"))
    return 1 if rep["findings"] else 0


def cmd_turan(args):
    if args.regenerate_constants:
        trials = args.trials or 20000
        tables = turan_constants.regenerate(
            seed=args.seed or 20240801,
            discrete_trials=max(trials * 10, 10000),
            integral_trials=trials)
        _emit(args, tables)
        return 0
    if args.estimate is not None:
        est = es.estimate_turan_constant(args.estimate, 10,
                                         args.trials or 10000, args.seed)
        _emit(args, {"d": args.estimate, "estimate": est,
                     "with_safety": est * turan_constants.SAFETY})
        return 0
    check = args.check or "sweep"
    if check == "sweep":
        scale = (args.trials / 10000.0) if args.trials else 1.0
        recs = [verify.check_discrete_sweep(seed=args.seed, scale=scale),
                verify.check_integral_sweep(seed=args.seed, scale=scale),
                verify.check_three_interval_sweep(seed=args.seed, scale=scale)]
        ok = all(r["passed"] for r in recs)
        _emit(args, {"suites": recs, "all_passed": ok})
        return 0 if ok else 1
    rng = np.random.default_rng(args.seed)
    d = args.d or 2
    if check == "discrete":
        z, c, m = es.draw_discrete_instance(rng, dmax=d)
        rec = es.turan_discrete(z, c, args.m or m)
    elif check == "integral":
        p = es.draw_expsum(rng, d)
        rec = es.turan_integral(p, 1.0, 2.0)
    else:
        p = es.draw_expsum(rng, d, re_range=(0.05, 2.0))
        rec = es.three_interval(p, 1.0, 1, "growth")
    _emit(args, rec)
    return 0 if rec["holds"] else 1


def cmd_bootstrap(args):
    _require(args, "regime", "n", "k")
    if args.regime == "infinity":
        start = args.beta0 if args.beta0 is not None else 0.3
        st = bs.bootstrap_infinity(args.n, args.k, start)
    else:
        start = args.sigma0 if args.sigma0 is not None else 0.3
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
    scale = args.scale if args.scale is not None else 1.0
    known = [fn.suite_name for fn in verify.SUITES]
    unknown = sorted(set(args.suite or ()) - set(known))
    if unknown:
        raise UsageError(f"unknown suite(s): {', '.join(unknown)}; known "
                         f"suites: {', '.join(known)}")
    names = [nm for nm in known if not args.suite or nm in args.suite]
    recs = mo.parallel_map(_run_one_suite,
                           [(nm, args.seed, scale) for nm in names], args.jobs)
    rep = {"suites": recs, "all_passed": all(r["passed"] for r in recs),
           "seed": args.seed, "scale": scale}
    for rec in recs:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"[{status}] {rec['name']}", file=sys.stderr)
    _emit(args, rep)
    return 0 if rep["all_passed"] else 1


def _run_one_suite(task):
    name, seed, scale = task
    return verify.run_suites(names=[name], seed=seed, scale=scale)["suites"][0]


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args)
        rc = COMMANDS[args.command](args)
        return 0 if rc is None else rc
    except (UsageError, ParameterError, PreconditionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
