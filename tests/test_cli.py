import json
import math
import subprocess
import sys

import pytest

from conespec.cli import main


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


def test_symbol_command(tmp_path):
    out = tmp_path / "s.json"
    rc = main(["symbol", "--n", "4", "--k", "1",
               "--xi", "[1,0,0,0]",
               "--hhat", "[[0,0,0,0],[0,0,1,0],[0,1,0,0],[0,0,0,0]]",
               "--out", str(out)])
    assert rc == 0
    mat = read_json(out)["data"]["matrix_re"]
    assert mat[1][2] == pytest.approx(-0.25)


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


def test_verify_all_unknown_suite(capsys):
    assert main(["verify-all", "--suite", "no.such.suite"]) == 2
    err = capsys.readouterr().err
    assert "no.such.suite" in err and "expsum.shift_covariance" in err


def test_verify_all_jobs_matches_serial(tmp_path):
    suites = ["--suite", "expsum.shift_covariance",
              "--suite", "polytensor.gauge_composition"]
    docs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"v{jobs}.json"
        assert main(["verify-all", "--scale", "0.02", "--jobs", jobs,
                     "--out", str(out)] + suites) == 0
        docs.append(read_json(out)["data"])
    assert docs[0] == docs[1]
    assert len(docs[0]["suites"]) == 2


def test_bootstrap_command(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bootstrap", "--regime", "infinity", "--n", "6", "--k", "1",
               "--beta0", "0.5", "--ladder", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)["data"]
    assert doc["final_order"] == 4
    assert doc["ladder"]["p"] == math.inf


def test_turan_single_checks(tmp_path):
    out = tmp_path / "t.json"
    assert main(["turan", "--check", "discrete", "--d", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    assert read_json(out)["data"]["holds"] is True


def test_degenerate_scan_cli(tmp_path):
    out = tmp_path / "d.json"
    rc = main(["degenerate-scan", "--n", "4", "--k", "1",
               "--t-values", "0,0.05", "--j-max", "2", "--out", str(out)])
    assert rc == 0
    doc = read_json(out)["data"]
    assert doc["findings"] == []
    assert doc["witnesses_t0"]


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


def test_verify_all_quick(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify-all", "--seed", "42", "--scale", "0.02",
               "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert doc["data"]["all_passed"] is True
    assert len(doc["data"]["suites"]) >= 25


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "conespec.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-all" in proc.stdout
