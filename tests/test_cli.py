import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conespec import cli, verify
from conespec.cli import build_parser, main
from field_reference import expanded_symbol

EYE4 = "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"

# a fresh interpreter imports this conespec whether or not it is installed
FRESH_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def run_cli(args, tmp_path=None):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_exceptional_full_lattice(tmp_path):
    out = tmp_path / "e.json"
    rc = main(["exceptional", "--n", "4", "--k", "1", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert doc["data"]["full_lattice"] is True
    assert -1 in doc["data"]["values"] and 0 in doc["data"]["values"]


def test_rates_example(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["rates", "--n", "4", "--t", "0.1", "--family", "typeI",
               "--j", "1", "--out", str(out)])
    assert rc == 0
    roots = read_json(out)["data"]["roots"]
    assert sorted(round(r["re"], 9) for r in roots) == [-1.9, 2.0]


def test_usage_error_names_constraint(tmp_path, capsys):
    rc = main(["exceptional", "--n", "5", "--k", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n/2 - 1" in err and "n=3" in err


def test_missing_option_is_usage_error(capsys):
    assert main(["rates", "--n", "4"]) == 2


def test_kernel_and_quadratic_lie(tmp_path):
    out = tmp_path / "k.json"
    assert main(["kernel", "--n", "4", "--k", "1", "--mode", "log",
                 "--out", str(out)]) == 0
    assert read_json(out)["data"]["dimension"] == 0
    assert main(["kernel", "--n", "3", "--mode", "quadratic-lie",
                 "--out", str(out)]) == 0
    doc = read_json(out)["data"]
    assert doc["dimension"] == 18 and doc["invertible"]


def test_kernel_has_no_n3_degree1_mode(capsys):
    # the n = 3 degree-1 profile is mode degree1 at (3, 1)
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--n", "3", "--k", "1", "--mode", "n3_degree1"])
    assert exc.value.code == 2
    assert "invalid choice: 'n3_degree1'" in capsys.readouterr().err


def test_symbol_command(tmp_path):
    # the whole matrix, and the scalar value, at a non-axis xi against the
    # field operator applied to hhat (xi . x)^N / N!
    from conespec import polytensor as pt
    from conespec import symbols as sy

    xi = [1, 2, -1, 3]
    hhat = [[2, 0, 1, -1], [0, 1, 3, 0], [1, 3, 0, 2], [-1, 0, 2, -2]]
    argv = ["symbol", "--n", "4", "--xi", json.dumps(xi),
            "--hhat", json.dumps(hhat)]
    out = tmp_path / "s.json"
    assert main([*argv, "--k", "1", "--out", str(out)]) == 0
    data = read_json(out)["data"]
    want = expanded_symbol(pt.bach_lin, 4, xi, hhat)
    got = np.array(data["matrix_re"]) + 1j * np.array(data["matrix_im"])
    assert np.allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    assert main([*argv, "--scalar", "--out", str(out)]) == 0
    scalar = read_json(out)["data"]["scalar"]
    want = expanded_symbol(lambda h: sy.OPERATORS["scalar"][2](h, 1), 2, xi,
                           hhat)
    assert complex(scalar["re"], scalar["im"]) == pytest.approx(complex(want),
                                                                rel=1e-13)


def test_apply_round_trip(tmp_path):
    from conespec import polytensor as pt

    field = pt.radial_form(3).radial_scaled(1)
    src = tmp_path / "field.json"
    src.write_text(json.dumps(field.to_json()))
    out = tmp_path / "out.json"
    rc = main(["apply", "--op", "lie", "--field", str(src), "--out", str(out)])
    assert rc == 0
    got = pt.PolyTensor.from_json(read_json(out)["data"])
    assert (got - pt.delta_metric(3).scaled(2)).is_zero()


def test_apply_reads_json_floats_by_decimal_text(tmp_path):
    # a JSON float coeff or gamma is the rational its decimal text names
    data = []
    for coeff, gamma in [(0.1, 1.5), ("1/10", "3/2")]:
        src = tmp_path / "field.json"
        src.write_text(json.dumps({"n": 3, "rank": 0, "components": {"": [
            {"coeff": coeff, "alpha": [2, 0, 0], "gamma": gamma}]}}))
        out = tmp_path / "out.json"
        assert main(["apply", "--op", "laplacian", "--field", str(src),
                     "--out", str(out)]) == 0
        data.append(read_json(out)["data"])
    assert data[0] == data[1]
    assert all(isinstance(term["coeff"], str)
               for terms in data[0]["components"].values() for term in terms)


def test_modes_json_and_csv(tmp_path):
    out = tmp_path / "m.json"
    rc = main(["modes", "--n", "4", "--k", "1", "--t", "0", "--j", "1",
               "--out", str(out)])
    assert rc == 0
    doc = read_json(out)["data"]
    assert doc["m_ang"] == 3
    assert sum(r["mult"] for r in doc["roots"]) == 12
    csv_out = tmp_path / "m.csv"
    rc = main(["modes", "--n", "4", "--k", "1", "--t", "0", "--j", "1",
               "--format", "csv", "--out", str(csv_out)])
    assert rc == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "n,k,t,j,root_re,root_im,mult"
    assert len(lines) == 1 + len(doc["roots"])


def test_modes_integer_t(tmp_path):
    out = tmp_path / "m.json"
    assert main(["modes", "--n", "4", "--k", "1", "--t", "1", "--j", "1",
                 "--out", str(out)]) == 0
    assert read_json(out)["data"]["m_ang"] == 3


@pytest.mark.parametrize("exc", ["ProbeError", "ClosureError"])
def test_probe_and_closure_errors_exit_3(monkeypatch, capsys, exc):
    from conespec import mode_ode as mo

    def fail(*args):
        raise getattr(mo, exc)("basis not closed")

    monkeypatch.setattr(mo, "tensor_mode_system", fail)
    assert main(["modes", "--n", "4", "--k", "1", "--j", "1"]) == 3
    assert "numeric failure: basis not closed" in capsys.readouterr().err


def test_apply_operator_constraint_is_usage_error(tmp_path, capsys):
    from conespec import polytensor as pt

    src = tmp_path / "field.json"
    src.write_text(json.dumps(pt.radial_form(3).to_json()))
    assert main(["apply", "--op", "trace", "--field", str(src)]) == 2
    assert "trace needs rank 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["modes", "--j", "0"],
    ["three-annulus", "--j", "0"],
    ["degenerate-scan", "--t-values", "0", "--j-max", "0"],
])
def test_n2_is_usage_error(capsys, argv):
    assert main(argv[:1] + ["--n", "2", "--k", "1"] + argv[1:]) == 2
    assert "need n >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv,option", [
    (["modes", "--n", "4", "--k", "1", "--j", "1", "--t", "abc"], "--t"),
    (["degenerate-scan", "--n", "4", "--k", "1", "--t-values", "0,abc"],
     "--t-values"),
])
def test_non_rational_t_is_usage_error(capsys, argv, option):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{option}: 'abc' is not a rational number" in err


def test_apply_missing_field_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["apply", "--op", "lie", "--field", str(missing)]) == 2
    assert f"--field {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["gauged_lin", "bach_lin"])
def test_apply_k_zero_is_usage_error(tmp_path, capsys, op):
    from conespec import polytensor as pt

    src = tmp_path / "field.json"
    src.write_text(json.dumps(pt.dr_tensor(4).to_json()))
    assert main(["apply", "--op", op, "--k", "0", "--field", str(src)]) == 2
    assert "need k >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["bach_lin", "gauged_lin"])
def test_apply_n_below_three_is_usage_error(tmp_path, capsys, op):
    # both operators divide by n - 2
    from conespec import polytensor as pt

    src = tmp_path / "field.json"
    src.write_text(json.dumps(pt.dr_tensor(2).to_json()))
    assert main(["apply", "--op", op, "--field", str(src)]) == 2
    assert "needs n >= 3 (divides by n - 2), got n = 2" in \
        capsys.readouterr().err


@pytest.mark.parametrize("doc,msg", [
    ({}, "missing key 'n'"),
    ([1, 2], "must be a JSON object"),
    ({"n": 3, "rank": 1, "components": {"0": [{"alpha": [1, 0]}]}},
     "invalid components['0']"),
])
def test_apply_non_field_document_is_usage_error(tmp_path, capsys, doc, msg):
    src = tmp_path / "field.json"
    src.write_text(json.dumps(doc))
    assert main(["apply", "--op", "lie", "--field", str(src)]) == 2
    err = capsys.readouterr().err
    assert f"--field {src}" in err and msg in err


@pytest.mark.parametrize("key", ["coeff", "gamma", "alpha", "n"])
def test_apply_rejects_json_booleans(tmp_path, capsys, key):
    # bool is an int subclass, but true/false are not field data
    term = {"coeff": 1, "alpha": [2, 0, 0], "gamma": 0}
    doc = {"n": 3, "rank": 0, "components": {"": [term]}}
    if key == "n":
        doc["n"] = True
        msg = "invalid 'n'"
    else:
        term[key] = [True, 0, 0] if key == "alpha" else False
        msg = "invalid components['']"
    src = tmp_path / "field.json"
    src.write_text(json.dumps(doc))
    assert main(["apply", "--op", "laplacian", "--field", str(src),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert msg in capsys.readouterr().err


def test_apply_partial_index_out_of_range(tmp_path, capsys):
    from conespec import polytensor as pt

    src = tmp_path / "field.json"
    src.write_text(json.dumps(pt.radial_form(3).to_json()))
    assert main(["apply", "--op", "partial", "--index", "9",
                 "--field", str(src)]) == 2
    assert "index 9 out of range for n = 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv,msg", [
    (["modes", "--n", "4", "--k", "0", "--j", "1"], "need k >= 1"),
    (["modes", "--n", "4", "--k", "1", "--j", "-1"], "need harmonic degree"),
    (["degenerate-scan", "--n", "4", "--k", "1", "--t-values", "0",
      "--j-max", "-1"], "need j_max >= 0"),
])
def test_mode_parameter_guards_are_usage_errors(capsys, argv, msg):
    assert main(argv) == 2
    assert msg in capsys.readouterr().err


@pytest.mark.parametrize("argv,msg", [
    (["exceptional", "--operator", "gauge", "--n", "4", "--j-max", "0"],
     "j_max >= 2"),
    (["gap", "--n", "4", "--j-max", "0"], "need j_max >= 3"),
    (["three-annulus", "--n", "4", "--k", "1", "--j", "1",
      "--beta-prime-frac", "0"], "need 0 < beta_prime < beta/2"),
    (["three-annulus", "--n", "4", "--k", "1", "--j", "1", "--trials", "0"],
     "need trials >= 1"),
    (["turan", "--check", "sweep", "--trials", "0"], "need trials >= 1"),
    (["turan", "--check", "discrete", "--d", "0"], "need d >= 1"),
    (["turan", "--check", "discrete", "--m", "0"], "m must be an integer >= 1"),
    (["exceptional", "--n", "4", "--k", "1", "--window", "5", "-5"],
     "need window lo <= hi"),
    (["verify-all", "--scale", "nan"], "need scale > 0"),
    (["symbol", "--n", "4", "--k", "1", "--xi", "[1, 0", "--hhat",
      EYE4], "--xi: not JSON"),
    (["symbol", "--n", "4", "--k", "1", "--xi", "[1, 0, 0, 0]", "--hhat",
      "eye"], "--hhat: not JSON"),
    (["symbol", "--n", "4", "--k", "1", "--xi", "[1, 0, 0]", "--hhat",
      EYE4], "--xi: need a JSON list of n = 4 numbers"),
    (["symbol", "--n", "4", "--k", "1", "--xi", "[1, 0, 0, 0]", "--hhat",
      "[[1, 0], [0, 1]]"], "--hhat: need an n x n JSON matrix"),
    (["symbol", "--n", "4", "--scalar", "--xi", "[1, 0, 0, 0]", "--hhat",
      "[[1, 0, 0, 0], [0, 1]]"], "--hhat: need an n x n JSON matrix"),
    (["kernel", "--n", "4", "--k", "1", "--mode", "degree1", "--config",
      "TMP/missing.json"], "--config TMP/missing.json: No such file"),
    (["kernel", "--n", "4", "--k", "1", "--mode", "degree1", "--config",
      "TMP/not_json.json"], "--config TMP/not_json.json: not JSON"),
    (["kernel", "--n", "4", "--k", "1", "--mode", "degree1", "--config",
      "TMP/list.json"], "--config TMP/list.json: need a JSON object"),
    (["gap", "--n", "2", "--j-max", "5"], "need n >= 3"),
    (["symbol", "--n", "2", "--k", "1", "--xi", "[1, 0]", "--hhat",
      "[[1, 0], [0, 1]]"], "need n >= 3"),
    (["symbol", "--n", "2", "--scalar", "--xi", "[1, 0]", "--hhat",
      "[[1, 0], [0, 1]]"], "need n >= 3"),
    (["verify-all", "--scale", "inf"], "need scale > 0"),
    (["verify-all", "--scale=-1"], "need scale > 0"),
    (["verify-all", "--scale", "0"], "need scale > 0"),
    (["bootstrap", "--regime", "infinity", "--n", "4", "--k", "1",
      "--beta0", "nan"], "need finite beta0 > 0"),
    (["bootstrap", "--regime", "infinity", "--n", "4", "--k", "1",
      "--beta0", "inf"], "need finite beta0 > 0"),
    (["bootstrap", "--regime", "origin", "--n", "4", "--k", "1",
      "--sigma0", "nan"], "need finite sigma0 > 0"),
    (["bootstrap", "--regime", "origin", "--n", "4", "--k", "1",
      "--sigma0", "inf"], "need finite sigma0 > 0"),
    (["symbol", "--n", "4", "--k", "0", "--xi", "[0, 0, 0, 0]", "--hhat",
      EYE4], "need k >= 1"),
    (["symbol", "--n", "4", "--k", "-2", "--xi", "[1, 0, 0, 0]", "--hhat",
      EYE4], "need k >= 1"),
    (["symbol", "--n", "4", "--k", "1", "--xi", "[NaN, 0, 0, 0]", "--hhat",
      EYE4], "--xi: need finite entries"),
    (["symbol", "--n", "4", "--scalar", "--xi", "[1, 0, 0, 0]", "--hhat",
      "[[Infinity, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"],
     "--hhat: need finite entries"),
    (["degenerate-scan", "--n", "4", "--k", "1", "--t-values", "0",
      "--jobs=0"], "need jobs >= 1"),
    (["degenerate-scan", "--n", "4", "--k", "1", "--t-values", "0",
      "--jobs=-2"], "need jobs >= 1"),
    (["verify-all", "--jobs=-1"], "need jobs >= 1"),
    (["symbol", "--n", "4", "--k", "1", "--xi", "[1, 0, 0, 0]", "--hhat",
      "[[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"],
     "--hhat: need a symmetric matrix"),
])
def test_out_of_range_option_is_usage_error(capsys, tmp_path, argv, msg):
    # an explicit value is checked, never replaced by the default; TMP
    # stands for a directory holding a non-JSON and a non-object config
    (tmp_path / "not_json.json").write_text("n = 4")
    (tmp_path / "list.json").write_text("[4, 1]")
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    assert msg.replace("TMP", str(tmp_path)) in capsys.readouterr().err


def test_verify_all_unknown_suite(capsys):
    assert main(["verify-all", "--suite", "no.such.suite"]) == 2
    err = capsys.readouterr().err
    assert "no.such.suite" in err and "expsum.shift_covariance" in err


SUITE_NAMES = [fn.suite_name for fn in verify.SUITES]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_verify_all_suite(tmp_path, name):
    # `--suite` and the benchmark's grouping rely on unique names whose
    # prefix before the first '.' is the conespec module they check
    assert SUITE_NAMES.count(name) == 1
    assert importlib.util.find_spec("conespec." + name.split(".")[0])
    out = tmp_path / "v.json"
    assert main(["verify-all", "--suite", name, "--seed", "42",
                 "--scale", "0.02", "--out", str(out)]) == 0
    doc = read_json(out)["data"]
    assert [s["name"] for s in doc["suites"]] == [name]
    assert doc["all_passed"] is True


def test_verify_all_jobs_matches_serial(tmp_path, monkeypatch):
    # a bare verify-all runs every registered suite and aggregates them
    monkeypatch.setattr(verify, "SUITES", [verify.check_shift_covariance,
                                           verify.check_moment_recursion])
    docs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"v{jobs}.json"
        assert main(["verify-all", "--scale", "0.02", "--jobs", jobs,
                     "--out", str(out)]) == 0
        docs.append(read_json(out)["data"])
    assert docs[0] == docs[1]
    assert [s["name"] for s in docs[0]["suites"]] == [
        "expsum.shift_covariance", "polytensor.sphere_moment_recursion"]
    assert docs[0]["all_passed"] is True


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_reports_suite_seconds(tmp_path, jobs):
    names = ["expsum.shift_covariance", "polytensor.sphere_moment_recursion"]
    out = tmp_path / "v.json"
    argv = ["verify-all", "--scale", "0.02", "--jobs", jobs, "--out", str(out)]
    for name in names:
        argv += ["--suite", name]
    assert main(argv) == 0
    doc = read_json(out)
    seconds = doc["metadata"]["suite_seconds"]
    assert sorted(seconds) == sorted(names)
    assert all(isinstance(v, float) and v >= 0 for v in seconds.values())
    assert "suite_seconds" not in doc["data"]


def test_verify_all_loads_numpy_random_before_the_first_suite(tmp_path):
    # numpy.random loads lazily; verify-all loads it before it times any
    # suite, so the first suite's seconds do not include it.  A fresh
    # interpreter, because the test process has long loaded it
    out = tmp_path / "v.json"
    code = f"""if True:
        import sys
        from conespec import cli, verify
        assert "numpy.random" not in sys.modules
        seen = []
        first = verify.SUITES[0]
        def wrapper(seed, scale):
            seen.append("numpy.random" in sys.modules)
            return first(seed=seed, scale=scale)
        wrapper.suite_name = first.suite_name
        verify.SUITES[0] = wrapper
        rc = cli.main(["verify-all", "--suite", first.suite_name,
                       "--scale", "0.02", "--out", {str(out)!r}])
        sys.exit(rc or seen != [True])
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=FRESH_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert read_json(out)["data"]["all_passed"] is True


def test_bootstrap_command(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bootstrap", "--regime", "infinity", "--n", "6", "--k", "1",
               "--beta0", "0.5", "--ladder", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)["data"]
    assert doc["final_order"] == 4
    assert doc["ladder"]["p"] == math.inf


@pytest.mark.parametrize("regime,start,terminal", [
    ("infinity", "1e-60", 2), ("origin", "5e-324", 2.0)])
def test_bootstrap_tiny_start_reaches_terminal(tmp_path, regime, start,
                                               terminal):
    out = tmp_path / "b.json"
    start_flag = "--beta0" if regime == "infinity" else "--sigma0"
    assert main(["bootstrap", "--regime", regime, "--n", "4", "--k", "1",
                 start_flag, start, "--out", str(out)]) == 0
    final = read_json(out)["data"]["final_order"]
    assert final == terminal and type(final) is type(terminal)


def test_symbol_overflow_is_numeric_failure(capsys):
    # |xi|^4 overflows to inf and inf - inf is NaN: the command must not
    # write NaN into data
    assert main(["symbol", "--n", "4", "--k", "1", "--xi", "[1e200, 0, 0, 0]",
                 "--hhat", EYE4]) == 3
    assert "symbol value overflowed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["modes", "three-annulus"])
def test_huge_t_is_numeric_failure_naming_the_float_range(capsys, command):
    # det P at t = 1e200 is exact, but its factors leave the float range
    # before np.roots can take them
    assert main([command, "--n", "4", "--k", "1", "--j", "1",
                 "--t", "1e200"]) == 3
    assert ("a degree-5 factor of det P has a coefficient past the float "
            "range") in capsys.readouterr().err


def test_turan_single_checks(tmp_path):
    out = tmp_path / "t.json"
    assert main(["turan", "--check", "discrete", "--d", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    assert read_json(out)["data"]["holds"] is True


GOLDEN_TURAN = json.loads((Path(__file__).resolve().parent / "data"
                           / "golden_turan.json").read_text())


@pytest.mark.parametrize("cell", GOLDEN_TURAN,
                         ids=[" ".join(c["argv"]) for c in GOLDEN_TURAN])
def test_turan_single_checks_match_golden(tmp_path, cell):
    # the instance each single check draws from its seed, and its record,
    # are pinned (regenerate with tests/data/make_golden_turan.py only when
    # a change to either is intended)
    out = tmp_path / "t.json"
    assert main(["turan", *cell["argv"], "--out", str(out)]) == cell["exit"]
    assert read_json(out)["data"] == cell["data"]


GOLDEN_RATES = json.loads((Path(__file__).resolve().parent / "data"
                           / "golden_rates.json").read_text())
RATES_GROUPS = sorted({tuple(c["argv"][:3]) for c in GOLDEN_RATES})


@pytest.mark.parametrize("group", RATES_GROUPS, ids=" ".join)
def test_rates_and_gap_match_golden(tmp_path, group):
    # the displayed roots, witnesses and clusters of every run at one n are
    # pinned (regenerate with tests/data/make_golden_rates.py only when a
    # change to them is intended)
    out = tmp_path / "r.json"
    for cell in GOLDEN_RATES:
        if tuple(cell["argv"][:3]) == group:
            assert main([*cell["argv"], "--out", str(out)]) == 0
            assert read_json(out)["data"] == cell["data"], cell["argv"]


def test_turan_discrete_overflow_is_numeric_failure(tmp_path, capsys):
    # at d = 400 the power sums leave the float range: exit 3 naming the
    # quantity, no document and no numpy warning
    out = tmp_path / "t.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["turan", "--check", "discrete", "--d", "400",
                     "--out", str(out)]) == 3
    assert "rhs is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_turan_unplaceable_exponents_name_the_constraint(tmp_path, capsys):
    # 200 exponents 0.5 apart do not fit in the drawn box: exit 3 naming
    # d, the separation and the box, and no document
    out = tmp_path / "t.json"
    assert main(["turan", "--check", "integral", "--d", "200",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "of d = 200 found no point 0.5 from the earlier ones" in err
    assert "in the box Re in [0.0, 2.0], Im in [-3, 3]" in err
    assert not out.exists()


def test_turan_discrete_overflowing_product_holds(tmp_path):
    # at d = 300 constant * rhs overflows although both are finite:
    # the check holds, without a numpy warning
    out = tmp_path / "t.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["turan", "--check", "discrete", "--d", "300",
                     "--out", str(out)]) == 0
    data = read_json(out)["data"]
    assert data["holds"] is True
    assert math.isfinite(data["rhs"]) and math.isfinite(data["constant"])
    assert data["constant"] * data["rhs"] == math.inf


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    # one process runs different commands in sequence, with and without
    # --config, on one parser; each call's data matches a fresh process
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    cli._parser.cache_clear()
    conf = tmp_path / "kernel.json"
    conf.write_text(json.dumps({"n": 4, "k": 1, "mode": "log"}))
    scan = tmp_path / "scan.json"
    scan.write_text(json.dumps({"n": 4, "k": 1, "t-values": "0,0.05",
                                "j-max": 1}))
    runs = [["kernel", "--config", str(conf)],
            ["turan", "--check", "integral", "--d", "2", "--seed", "3"],
            ["kernel", "--n", "4", "--k", "1", "--mode", "degree1"],
            ["degenerate-scan", "--config", str(scan)],
            ["bootstrap", "--regime", "infinity", "--n", "6", "--k", "1"],
            ["verify-all", "--suite", "expsum.shift_covariance",
             "--scale", "0.02"]]
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        assert main(argv + ["--out", str(here)]) == 0
        proc = subprocess.run([sys.executable, "-m", "conespec.cli", *argv,
                               "--out", str(fresh)], capture_output=True,
                              text=True, env=FRESH_ENV, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert read_json(here)["data"] == read_json(fresh)["data"], argv
    assert len(built) == 1


@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
def test_turan_discrete_draws_exactly_d_terms(tmp_path, seed):
    out = tmp_path / "t.json"
    main(["turan", "--check", "discrete", "--d", "3", "--seed", seed,
          "--out", str(out)])
    assert read_json(out)["data"]["params"]["d"] == 3


def test_three_annulus_unbounded_turan_bound(tmp_path):
    # at beta' = 0.49 beta the Turan power leaves the float range: the
    # bound is reported as absent and the exit code follows L0
    out = tmp_path / "a.json"
    rc = main(["three-annulus", "--n", "4", "--k", "1", "--j", "3",
               "--beta-prime-frac", "0.49", "--trials", "20",
               "--out", str(out)])
    doc = read_json(out)["data"]
    assert doc["turan_bound"] is None
    assert rc == (0 if doc["L0"] is not None else 1)


def test_low_confidence_reaches_three_annulus(tmp_path, monkeypatch):
    from conespec import mode_ode as mo

    real = mo.indicial_spectrum

    def flagged(op):
        spec = real(op)
        spec.low_confidence = True
        return spec

    monkeypatch.setattr(mo, "indicial_spectrum", flagged)
    out = tmp_path / "a.json"
    assert main(["three-annulus", "--n", "4", "--k", "1", "--j", "1",
                 "--trials", "10", "--out", str(out)]) == 0
    assert read_json(out)["data"]["low_confidence"] is True


def test_degenerate_scan_cli(tmp_path):
    out = tmp_path / "d.json"
    rc = main(["degenerate-scan", "--n", "4", "--k", "1",
               "--t-values", "0,0.05", "--j-max", "2", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)["data"]
    assert doc["findings"] == []
    assert doc["witnesses_t0"]


def test_degenerate_scan_claim_scope(tmp_path):
    # at n = 2k the paper's claim does not apply: the scan lists what it
    # finds and exits 0; at n > 2k nothing is found, as before
    out = tmp_path / "d.json"
    assert main(["degenerate-scan", "--n", "4", "--k", "2", "--t-values",
                 "0,1/20", "--j-max", "2", "--out", str(out)]) == 0
    doc = read_json(out)["data"]
    assert doc["claim_applies"] is False
    assert [(f["t"], f["j"], f["root"]["mult"], f["dimension"])
            for f in doc["findings"]] == [(0.05, 0, 2, 1), (0.05, 2, 3, 1)]
    assert main(["degenerate-scan", "--n", "4", "--k", "1", "--t-values",
                 "0,1/20", "--j-max", "2", "--out", str(out)]) == 0
    doc = read_json(out)["data"]
    assert doc["claim_applies"] is True and doc["findings"] == []
    assert doc["witnesses_t0"]


def test_degenerate_scan_finding_fails_where_claim_applies(monkeypatch):
    from conespec import mode_ode as mo

    real = mo.degenerate_scan

    def with_finding(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep["findings"].append({"t": 0.05, "j": 0, "dimension": 1,
                                "root": {"re": 0.0, "im": 0.0, "mult": 1}})
        return rep

    monkeypatch.setattr(mo, "degenerate_scan", with_finding)
    assert main(["degenerate-scan", "--n", "4", "--k", "1", "--t-values",
                 "1/20", "--j-max", "0"]) == 1


@pytest.mark.parametrize("argv", [
    ["modes", "--n", "4", "--k", "1", "--j", "1", "--t", "-1/20"],
    ["rates", "--n", "4", "--family", "typeII", "--j", "1", "--t", "-0.05"],
    ["gap", "--n", "4", "--t", "-1/20", "--j-max", "3"],
    ["degenerate-scan", "--n", "4", "--k", "1", "--t-values", "-1/20,1/20",
     "--j-max", "1"],
    ["degenerate-scan", "--n", "4", "--k", "1", "--t-values", "-0.05",
     "--j-max", "1"],
])
def test_negative_rationals_are_values(tmp_path, argv):
    # argparse alone reads -1/20 and -1/20,1/20 as option names (exit 2);
    # the value must give the same data as the = form
    tokens, joined = iter(argv), []
    for a in tokens:
        joined.append(f"{a}={next(tokens)}" if a in ("--t", "--t-values")
                      else a)
    datas = []
    for form in (argv, joined):
        out = tmp_path / "o.json"
        assert main(form + ["--out", str(out)]) == 0
        datas.append(read_json(out)["data"])
    assert datas[0] == datas[1]


def test_negative_rationals_from_a_config_file(tmp_path):
    conf = tmp_path / "conf.json"
    out = tmp_path / "o.json"
    conf.write_text(json.dumps({"n": 4, "family": "typeI", "j": 1,
                                "t": "-1/20"}))
    assert main(["rates", "--config", str(conf), "--out", str(out)]) == 0
    assert read_json(out)["data"]["t"] == -0.05
    conf.write_text(json.dumps({"n": 4, "k": 1, "t-values": "-1/20,0",
                                "j-max": 1}))
    assert main(["degenerate-scan", "--config", str(conf),
                 "--out", str(out)]) == 0
    assert read_json(out)["data"]["t_values"] == [-0.05, 0.0]


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 4, "k": 1, "mode": "log"}))
    out = tmp_path / "o.json"
    assert main(["kernel", "--config", str(conf), "--out", str(out)]) == 0
    assert read_json(out)["data"]["mode"] == "log"
    # flag wins over config
    assert main(["kernel", "--config", str(conf), "--mode", "degree1",
                 "--out", str(out)]) == 0
    assert read_json(out)["data"]["mode"] == "degree1"


def test_config_suite_list_is_replaced_by_flags(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "suite": ["polytensor.sphere_moment_recursion"], "scale": 0.02}))
    out = tmp_path / "v.json"
    assert main(["verify-all", "--config", str(conf), "--suite",
                 "expsum.shift_covariance", "--out", str(out)]) == 0
    data = read_json(out)["data"]
    assert [s["name"] for s in data["suites"]] == ["expsum.shift_covariance"]
    assert data["scale"] == 0.02


def test_config_true_is_a_bare_flag(tmp_path):
    conf = tmp_path / "conf.json"
    out = tmp_path / "b.json"
    for ladder in (True, False):
        conf.write_text(json.dumps({"regime": "infinity", "n": 6, "k": 1,
                                    "ladder": ladder}))
        assert main(["bootstrap", "--config", str(conf),
                     "--out", str(out)]) == 0
        assert ("ladder" in read_json(out)["data"]) is ladder


@pytest.mark.parametrize("key", ["tolerence", "tolerance", "jobs"])
def test_config_unknown_key_is_usage_error(tmp_path, capsys, key):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: 1}))
    assert main(["three-annulus", "--n", "4", "--k", "1", "--j", "1",
                 "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and str(conf) in err


@pytest.mark.parametrize("key,value", [("mode", "bogus"), ("n", "x"),
                                       ("k", True)])
def test_config_value_is_refused_like_the_flag(tmp_path, capsys, key, value):
    # a config value is parsed by the command's parser: the same error,
    # exit 2, and no traceback
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    errors = []
    for argv in (["--config", str(conf)], [f"--{key}={value}"]):
        with pytest.raises(SystemExit) as exc:
            main(["kernel"] + argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert errors[0] == errors[1]
    assert f"argument --{key}" in errors[0]


@pytest.mark.parametrize("argv", [
    ["modes", "--n", "4", "--k", "1", "--j", "1", "--jobs", "2"],
    ["modes", "--n", "4", "--k", "1", "--j", "1", "--seed", "3"],
    ["three-annulus", "--n", "4", "--k", "1", "--j", "1", "--tolerance", "5"],
    ["symbol", "--n", "4", "--scalar", "--format", "csv"],
    ["verify-all", "--format", "json"],
    ["turan", "--estimate", "2"],
    ["turan", "--regenerate-constants"],
])
def test_undeclared_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_option_table_is_pinned():
    # every subcommand's options (strings, dest, default, type, choices,
    # nargs, action) as tests/data/make_cli_options.py records them
    data = Path(__file__).resolve().parent / "data"
    spec = importlib.util.spec_from_file_location(
        "make_cli_options", data / "make_cli_options.py")
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    want = json.loads((data / "cli_options.json").read_text())
    assert json.loads(json.dumps(maker.option_table(build_parser()))) == want


def test_readme_commands_parse():
    # every `conespec ...` line of README's sh blocks names only options
    # its command declares (parsed, not run)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("conespec ")]
    assert len(lines) >= 15
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_rerun_byte_identical_data(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["three-annulus", "--n", "4", "--k", "1", "--t", "0",
                     "--j", "1", "--trials", "40", "--seed", "42",
                     "--out", str(path)]) == 0
    da = json.dumps(read_json(a)["data"], sort_keys=True)
    db = json.dumps(read_json(b)["data"], sort_keys=True)
    assert da == db


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "conespec.cli", "--help"],
                          capture_output=True, text=True, env=FRESH_ENV)
    assert proc.returncode == 0
    assert "verify-all" in proc.stdout


def test_degenerate_scan_jobs_reuse_pool_and_exit_cleanly(tmp_path):
    # one process runs two --jobs 2 scans, which share the forked workers,
    # and a serial one: data is byte-identical, and the workers are ended at
    # exit without "Exception ignored" on stderr (a ResourceWarning is an
    # error, so a worker left running at exit shows there)
    argv = ["degenerate-scan", "--n", "4", "--k", "1", "--j-max", "1",
            "--t-values", "0,1/20"]
    outs = [tmp_path / f"d{i}.json" for i in range(3)]
    runs = [argv + ["--jobs", jobs, "--out", str(out)]
            for jobs, out in zip(("2", "2", "1"), outs)]
    code = ("import sys\nfrom conespec import cli\n"
            f"sys.exit(max(cli.main(a) for a in {runs!r}))")
    proc = subprocess.run([sys.executable, "-W", "error::ResourceWarning",
                           "-c", code], capture_output=True, text=True,
                          env=FRESH_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Exception ignored" not in proc.stderr
    data = [json.dumps(read_json(out)["data"]) for out in outs]
    assert data[0] == data[1] == data[2]
