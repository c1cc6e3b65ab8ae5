"""CLI behavior: values, determinism, manifests, error handling."""

import argparse
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from smoothgan import cli
from smoothgan.cli import build_parser, main
from smoothgan.smoothness import SmoothnessReport
from smoothgan.trainer import TrainTrace

MU_CSV = "x_1,w\n0.3,1\n"
MU0_CSV = "x_1,w\n0,1\n"
MU2_CSV = "x_1,x_2,w\n0.3,0.1,1\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "mu.csv").write_text(MU_CSV)
    (tmp_path / "mu0.csv").write_text(MU0_CSV)
    (tmp_path / "mu2.csv").write_text(MU2_CSV)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_div_eval_w1(workdir, capsys):
    assert main(["div", "eval", "--loss", "w1", "--mu", "mu.csv", "--mu0", "mu0.csv"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.3, abs=1e-15)


def test_div_eval_mmd_fifteen_digits(workdir, capsys):
    assert main(["div", "eval", "--loss", "mmd", "--mu", "mu.csv", "--mu0", "mu0.csv"]) == 0
    out = capsys.readouterr().out.strip()
    expect = 0.5 * (2 - 2 * math.exp(-math.pi * 0.09))
    assert float(out) == pytest.approx(expect, rel=1e-14)
    assert len(out.replace(".", "").replace("-", "").lstrip("0")) >= 14


def test_disc_eval(workdir, capsys):
    assert main(["disc", "eval", "--loss", "mmd", "--mu", "mu.csv", "--mu0", "mu0.csv",
                 "--at", "0.15"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("phi: 0")
    assert "grad:" in out


def test_train_determinism_and_manifest(workdir):
    args = ["train", "particles", "--target", "ring", "--n", "8", "--steps", "50",
            "--seed", "7", "--out", "t1.csv"]
    assert main(args) == 0
    assert main(["train", "particles", "--target", "ring", "--n", "8", "--steps", "50",
                 "--seed", "7", "--out", "t2.csv"]) == 0
    assert (workdir / "t1.csv").read_bytes() == (workdir / "t2.csv").read_bytes()
    manifest = json.loads((workdir / "t1.csv.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == ["t1.csv"]
    assert "config_hash" in manifest and "wall_time_s" in manifest


def test_manifest_records_the_command_main_parsed(workdir, monkeypatch):
    args = ["train", "particles", "--n", "8", "--steps", "3", "--out", "t.csv"]
    monkeypatch.setattr(sys, "argv", ["-c", "hostprog-arg"])     # the host process's own
    assert main(args) == 0
    manifest = json.loads((workdir / "t.csv.manifest.json").read_text())
    assert manifest["command"] == "smoothgan " + " ".join(args)
    assert "argv" not in manifest["args"]
    monkeypatch.setattr(sys, "argv", ["smoothgan", *args[:-1], "u v.csv"])
    assert main() == 0
    manifest = json.loads((workdir / "u v.csv.manifest.json").read_text())
    assert manifest["command"] == "smoothgan " + " ".join(args[:-1]) + " 'u v.csv'"


def test_plotdata_trace(workdir):
    main(["train", "particles", "--target", "ring", "--n", "8", "--steps", "3",
          "--seed", "7", "--out", "t.csv"])
    assert main(["plotdata", "t.csv", "--out", "series.dat"]) == 0
    lines = (workdir / "series.dat").read_text().strip().splitlines()
    assert len(lines) == 3
    step, grad = lines[0].split()
    assert step == "0" and float(grad) > 0


def test_plotdata_rejects_garbage(workdir, capsys):
    for text in ["a,b\n1,2\n", "step,loss\n0\n", "ratio,seed\nx,1,2\n", "ratio,seed\n1\n",
                 "ratio,seed\n1,2\n", "ratio,seed,min_grad_norm\n"]:
        (workdir / "bad.csv").write_text(text)
        assert main(["plotdata", "bad.csv", "--out", "series.dat"]) == 2, text
        assert "Traceback" not in capsys.readouterr().err
        assert not (workdir / "series.dat").exists()


def test_sweep_and_plotdata_sorted(workdir):
    assert main(["sweep", "--ratios", "10,0.5", "--seeds", "2", "--target", "ring",
                 "--n", "8", "--steps", "20", "--seed", "3", "--out", "sweep.csv"]) == 0
    rows = (workdir / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "ratio,seed,min_grad_norm,final_loss,diverged"
    assert len(rows) == 5
    assert main(["plotdata", "sweep.csv", "--out", "ratio.dat"]) == 0
    ratios = [float(line.split()[0]) for line in
              (workdir / "ratio.dat").read_text().strip().splitlines()]
    assert ratios == sorted(ratios)


# --- golden bytes: the exact text every CSV writer and plotdata branch produces ---

def _fake_trace(args, seed, ratio):
    g = (0.5, 1e-05, 0.25)[seed] * ratio
    return TrainTrace(np.array([1 / 3, ratio / 7]), np.array([g + 1, g]), np.full(2, 0.1),
                      diverged=ratio > 100)


def test_sweep_and_plotdata_golden_bytes(workdir, monkeypatch):
    monkeypatch.setattr(cli, "_particle_trace", _fake_trace)
    assert main(["sweep", "--ratios", "10,0.5,1e4", "--seeds", "3", "--seed", "0",
                 "--out", "s.csv"]) == 0
    assert (workdir / "s.csv").read_text() == (
        "ratio,seed,min_grad_norm,final_loss,diverged\n"
        "10,0,5,1.42857142857143,0\n10,1,0.0001,1.42857142857143,0\n"
        "10,2,2.5,1.42857142857143,0\n0.5,0,0.25,0.0714285714285714,0\n"
        "0.5,1,5e-06,0.0714285714285714,0\n0.5,2,0.125,0.0714285714285714,0\n"
        "10000,0,5000,1428.57142857143,1\n10000,1,0.1,1428.57142857143,1\n"
        "10000,2,2500,1428.57142857143,1\n")
    assert main(["plotdata", "s.csv", "--out", "s.dat"]) == 0
    # within one ratio the rows sort by the text of min_grad_norm: 5e-06 comes last
    assert (workdir / "s.dat").read_text() == ("0.5 0.125\n0.5 0.25\n0.5 5e-06\n10 0.0001\n"
                                               "10 2.5\n10 5\n10000 0.1\n10000 2500\n"
                                               "10000 5000\n")


def test_plotdata_trace_golden_bytes(workdir):
    (workdir / "t.csv").write_text("step,loss,grad_norm,step_size,flags\n0,0.5,2,0.1,\n"
                                   "1,0.333333333333333,1e-07,0.1,\n"
                                   "2,1e+300,12345.6789,0.1,diverged\n")
    assert main(["plotdata", "t.csv", "--out", "t.dat"]) == 0
    assert (workdir / "t.dat").read_text() == "0 2\n1 1e-07\n2 12345.6789\n"


def test_rkhs_series_golden_bytes(workdir, monkeypatch, capsys):
    monkeypatch.setattr(cli, "truncated_series_norm",
                        lambda *a: np.array([1 / 3, 0.1 + 0.2, 1e-20, 1.0]))
    assert main(["rkhs", "series", "--centers", "mu0.csv", "--out", "r.csv"]) == 0
    text = "order,partial_sum\n0,0.333333333333333\n1,0.3\n2,1e-20\n3,1\n"
    assert capsys.readouterr().out == text
    assert (workdir / "r.csv").read_text() == text


def test_smooth_report_csv_golden_bytes(workdir, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_report", lambda *a: SmoothnessReport(
        0.1 + 0.2, 1 / 3, 2.0, 500, 0.01, 7, True, False, False))
    assert main(["smooth", "report", "--loss", "mmd", "--format", "csv", "--out", "s.csv"]) == 0
    text = ("alpha_hat,beta1_hat,beta2_hat,n_trials,grid_step,seed,alpha_saturated,"
            "beta1_saturated,beta2_saturated\n"
            "0.3,0.333333333333333,2,500,0.01,7,True,False,False\n")
    assert capsys.readouterr().out == text
    assert (workdir / "s.csv").read_text() == text


def test_env_moreau_roundtrip(workdir):
    xs = np.round(np.arange(-2.0, 2.0 + 0.005, 0.01), 10)
    body = "\n".join(f"{x},{abs(x)}" for x in xs)
    (workdir / "f.csv").write_text("x,value\n" + body + "\n")
    assert main(["env", "moreau", "--f", "f.csv", "--beta", "1", "--out", "out.csv"]) == 0
    rows = (workdir / "out.csv").read_text().strip().splitlines()[1:]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    truth = np.where(np.abs(xs) <= 1, 0.5 * xs ** 2, np.abs(xs) - 0.5)
    assert np.abs(vals - truth).max() <= 2e-2
    assert (workdir / "out.csv.manifest.json").exists()


def test_disc_eval_density_ratio(workdir, capsys):
    (workdir / "shared.csv").write_text("x_1,w\n0,0.75\n1,0.25\n")
    (workdir / "shared0.csv").write_text("x_1,w\n0,0.25\n1,0.75\n")
    assert main(["disc", "eval", "--loss", "js", "--mu", "shared.csv",
                 "--mu0", "shared0.csv", "--at", "0"]) == 0
    out = capsys.readouterr().out
    assert float(out.split()[1]) == pytest.approx(0.5 * math.log(0.75), abs=1e-12)
    assert "grad" not in out          # density ratios expose no spatial gradient
    # off-support query is a clean error, exit 2
    assert main(["disc", "eval", "--loss", "js", "--mu", "shared.csv",
                 "--mu0", "shared0.csv", "--at", "0.5"]) == 2


def test_env_legendre_with_dual_grid(workdir):
    xs = np.round(np.arange(-1.0, 1.0 + 0.005, 0.01), 10)
    (workdir / "q.csv").write_text(
        "x,value\n" + "\n".join(f"{x},{0.5 * x * x}" for x in xs) + "\n")
    assert main(["env", "legendre", "--f", "q.csv", "--dual-lo", "-1", "--dual-hi", "1",
                 "--dual-step", "0.01", "--out", "conj.csv"]) == 0
    rows = (workdir / "conj.csv").read_text().strip().splitlines()[1:]
    zs = np.array([float(r.split(",")[0]) for r in rows])
    vals = np.array([float(r.split(",")[1]) for r in rows])
    assert np.abs(vals - 0.5 * zs ** 2).max() <= 1e-12


def test_rkhs_series_cli(workdir, capsys):
    assert main(["rkhs", "series", "--centers", "mu0.csv", "--order", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "order,partial_sum"
    assert float(lines[1].split(",")[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_nn_init_and_specnorm(workdir, capsys):
    assert main(["nn", "init", "--input-dim", "2", "--width", "4", "--depth", "2",
                 "--seed", "5", "--normalize", "--out", "net.json"]) == 0
    assert main(["nn", "specnorm", "--net", "net.json"]) == 0
    out = capsys.readouterr().out
    assert out.count("layer") == 2


def test_smooth_report_json(workdir, capsys):
    assert main(["smooth", "report", "--loss", "mmd", "--d", "1", "--trials", "20",
                 "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_trials"] == 20
    assert 0 < report["beta2_hat"] <= 2 * math.pi * 1.01


def test_gan2d_config_run(workdir):
    cfg = {"target": {"kind": "ring", "n": 8, "seed": 4}, "generator_init": "atoms",
           "depth": 2, "width": 4, "final_scale": 0.05, "n_steps": 3, "seed": 4,
           "lr_gen": 0.5}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "gan2d", "--config", "cfg.json", "--out", "g.csv"]) == 0
    rows = (workdir / "g.csv").read_text().strip().splitlines()
    assert len(rows) == 4


def test_verify_unknown_suite_exit_2(workdir):
    assert main(["verify", "--suite", "rkhs"]) == 0
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])


def test_verify_failing_check_exits_1(workdir, monkeypatch):
    # negative control: a suite with a failing check must exit 1
    import smoothgan.verify as verify_mod
    from smoothgan.verify import CheckResult

    def broken():
        return [CheckResult("corrupted constant", 1.0, lo=2 * math.pi, hi=2 * math.pi)]

    monkeypatch.setitem(verify_mod.SUITES, "rkhs", (broken,))
    assert main(["verify", "--suite", "rkhs"]) == 1


def _refuse_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_verify_format_json(workdir, capsys):
    assert main(["verify", "--suite", "divergences", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert len(records) >= 2
    for r in records:
        assert list(r) == ["name", "passed", "observed", "lo", "hi", "margin", "seconds"]
        lo = -math.inf if r["lo"] is None else r["lo"]
        hi = math.inf if r["hi"] is None else r["hi"]
        assert r["passed"] is True and lo <= r["observed"] <= hi
        assert r["margin"] == min(r["observed"] - lo, hi - r["observed"]) >= 0
        assert r["seconds"] >= 0


def test_verify_format_json_nonfinite_is_null(workdir, capsys, monkeypatch):
    import smoothgan.verify as verify_mod
    from smoothgan.verify import CheckResult

    monkeypatch.setitem(verify_mod.SUITES, "rkhs", (lambda: [CheckResult("nan", math.nan)],))
    assert main(["verify", "--suite", "rkhs", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == [{
        "name": "nan", "passed": False, "observed": None, "lo": None, "hi": None,
        "margin": None, "seconds": 0.0}]


# a parse, an output file, an argparse refusal and the first parse again
_ONE_PROCESS = [
    ["div", "eval", "--loss", "mmd", "--mu", "mu.csv", "--mu0", "mu0.csv"],
    ["env", "legendre", "--f", "q.csv", "--dual-lo", "-1", "--dual-hi", "1", "--dual-step",
     "0.25", "--out", "o.csv"],
    ["div", "eval", "--loss", "mmd", "--mu", "mu.csv", "--mu0", "mu0.csv", "--sigma-sq=x"],
    ["div", "eval", "--loss", "mmd", "--mu", "mu.csv", "--mu0", "mu0.csv"],
]


def _outcome(workdir, code, out, err):
    written = workdir / "o.csv"
    return code, out, err, written.read_text() if written.exists() else None


def test_one_parser_serves_every_call(workdir, capsys):
    _quad_grid(workdir)
    assert build_parser() is build_parser()
    in_process = []
    for argv in _ONE_PROCESS:
        try:
            code = main(argv)
        except SystemExit as exc:                          # argparse rejects a non-number
            code = exc.code
        in_process.append(_outcome(workdir, code, *capsys.readouterr()))
        (workdir / "o.csv").unlink(missing_ok=True)
    assert [o[0] for o in in_process] == [0, 0, 2, 0]
    assert in_process[0] == in_process[3]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    script = "import sys; from smoothgan.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, seen in zip(_ONE_PROCESS, in_process):
        res = subprocess.run([sys.executable, "-c", script, *argv], cwd=workdir, env=env,
                             capture_output=True, text=True, timeout=120)
        assert _outcome(workdir, res.returncode, res.stdout, res.stderr) == seen
        (workdir / "o.csv").unlink(missing_ok=True)


def test_missing_file_exit_2(workdir, capsys):
    # an absent file, a directory and a binary file as input, and a directory as output
    (workdir / "adir").mkdir()
    (workdir / "binary.csv").write_bytes(b"\xff\xfe\x00\xd0 not text")
    div = ["div", "eval", "--loss", "w1", "--mu0", "mu0.csv", "--mu"]
    for argv in (div + ["absent.csv"], div + ["adir"], div + ["binary.csv"],
                 ["train", "particles", "--n", "8", "--steps", "5", "--out", "adir"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")
    # a file that is not UTF-8 is named, whichever option read it
    for argv in (div + ["mu.csv", "--mu0", "binary.csv"], div + ["binary.csv"],
                 ["env", "legendre", "--f", "binary.csv", "--out", "o.csv"]):
        assert main(argv) == 2, argv
        assert "binary.csv" in capsys.readouterr().err


def test_non_finite_weight_exit_2(workdir, capsys):
    (workdir / "bad.csv").write_text("x_1,w\n0.3,nan\n0.5,1\n")
    assert main(["div", "eval", "--loss", "mmd", "--mu", "bad.csv", "--mu0", "mu0.csv"]) == 2
    assert "nan" not in capsys.readouterr().out
    # past ~1.3e154 the Gram's squared norms overflow: such coordinates are refused
    (workdir / "huge.csv").write_text("x_1,w\n1e200,1\n")
    assert main(["div", "eval", "--loss", "mmd", "--mu", "huge.csv", "--mu0", "mu0.csv"]) == 2
    assert "nan" not in capsys.readouterr().out
    (workdir / "far.csv").write_text("x_1,w\n1e10,1\n")
    assert main(["disc", "eval", "--loss", "mmd", "--mu", "far.csv", "--mu0", "mu0.csv",
                 "--at", "1e300"]) == 2
    assert "nan" not in capsys.readouterr().out


def test_csv_header_without_w_exit_2(workdir, capsys):
    (workdir / "bad.csv").write_text("x_1,v\n0.3,1\n")
    assert main(["div", "eval", "--loss", "w1", "--mu", "bad.csv", "--mu0", "mu0.csv"]) == 2
    assert "header" in capsys.readouterr().err


def test_config_not_json_exit_2(workdir, capsys):
    (workdir / "cfg.json").write_text("{not json")
    assert main(["train", "gan2d", "--config", "cfg.json", "--out", "g.csv"]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not (workdir / "g.csv").exists()


def test_gan2d_unknown_keys_exit_2(workdir, capsys):
    cfg = {"target": {"kind": "ring", "n": 8, "sed": 4}, "n_stepz": 3, "depth": 2}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "gan2d", "--config", "cfg.json", "--out", "g.csv"]) == 2
    err = capsys.readouterr().err
    assert "n_stepz" in err and "target.sed" in err and "depth" not in err


def test_malformed_net_and_grid_exit_2(workdir, capsys):
    (workdir / "net.json").write_text('{"layers": [{"shape": [2, 3], "weights": [1]}]}')
    assert main(["nn", "specnorm", "--net", "net.json"]) == 2
    for bad in ("NaN", "Infinity"):          # JSON reads both as floats
        (workdir / "net.json").write_text(
            '{"activation": "elu", "final_scale": 1.0, "layers": [{"shape": [1, 2], '
            f'"weights": [1.0, {bad}], "bias": [0.0]}}]}}')
        assert main(["nn", "specnorm", "--net", "net.json"]) == 2
        assert main(["nn", "specnorm", "--net", "net.json", "--normalize",
                     "--out", "out.json"]) == 2
        assert "nan" not in capsys.readouterr().out
        assert not (workdir / "out.json").exists()
    (workdir / "f.csv").write_text("x,value\n0.0,abc\n")
    assert main(["env", "moreau", "--f", "f.csv", "--beta", "1", "--out", "o.csv"]) == 2


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_grid_value_nan_or_minus_inf_exit_2(workdir, capsys, bad):
    # an envelope would drop the entry as if it were +inf (1.125 at x = 0.5, not -inf)
    (workdir / "f.csv").write_text(f"x,value\n0,1\n0.5,{bad}\n1,1\n")
    assert main(["env", "moreau", "--f", "f.csv", "--beta", "1", "--out", "o.csv"]) == 2
    assert "NaN or -inf" in capsys.readouterr().err
    assert not (workdir / "o.csv").exists()


def test_grid_all_plus_inf_exit_2(workdir, capsys):
    (workdir / "f.csv").write_text("x,value\n0,inf\n0.5,inf\n1,inf\n")
    assert main(["env", "legendre", "--f", "f.csv", "--out", "o.csv"]) == 2
    assert "proper" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("x,y,value\n0,0,1\n", "two distinct coordinates"),
    ("x,y,value\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n0,0,5\n", "repeats the point [0.0, 0.0]"),
    ("x,value\n0,1\n0.5,2\n0.5,3\n1,4\n", "repeats the point [0.5]"),
    ("x,value\n0,1\n0.5,2,3\n1,4\n", "row 2 has 3 cells but the header has 2"),
    ("x,y,value\n0,0,1\n0,1,2\n1,0,3,9\n1,1,4\n", "row 3 has 4 cells but the header has 3"),
    ("x,y,value\n" + "".join(f"{x},{y},1\n" for x in (0, 0.1, 0.2, 0.3)
                             for y in (0, 0.1, 0.27, 0.3)),
     "offset from the grid's corner is not a whole number of steps 0.03"),
    ("x,value\n0,1\n0.3,2\n0.5,3\n1,4\n", "is not a whole number of steps 0.2"),
], ids=["one-point-2d", "repeated-2d-point", "repeated-1d-x", "wide-1d-row", "wide-2d-row",
        "off-grid-2d-y", "off-grid-1d-x"])
def test_grid_csv_degenerate_points_exit_2(workdir, capsys, text, message):
    # a repeated point used to be kept silently (last row winning), a one-point 2-D
    # grid ended in a ValueError traceback, and a y off the grid was read at a grid
    # point of the x step (0.27 as 0.2)
    (workdir / "f.csv").write_text(text)
    assert main(["env", "moreau", "--f", "f.csv", "--beta", "1", "--out", "o.csv"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (workdir / "o.csv").exists()


def _quad_grid(workdir):
    xs = np.round(np.arange(-1.0, 1.0 + 0.005, 0.25), 10)
    (workdir / "q.csv").write_text(
        "x,value\n" + "\n".join(f"{x},{0.5 * x * x}" for x in xs) + "\n")


@pytest.mark.parametrize("dual", [["--dual-lo", "-1"], ["--dual-hi", "1"]])
def test_env_legendre_half_dual_range_exit_2(workdir, capsys, dual):
    _quad_grid(workdir)
    assert main(["env", "legendre", "--f", "q.csv", *dual, "--out", "o.csv"]) == 2
    assert "--dual-lo and --dual-hi" in capsys.readouterr().err
    assert not (workdir / "o.csv").exists()


def test_env_legendre_reversed_dual_range_exit_2(workdir, capsys):
    _quad_grid(workdir)
    assert main(["env", "legendre", "--f", "q.csv", "--dual-lo", "1", "--dual-hi", "-1",
                 "--out", "o.csv"]) == 2
    assert "lo < hi" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf"])
def test_env_legendre_bad_dual_step_exit_2(workdir, capsys, step):
    _quad_grid(workdir)
    assert main(["env", "legendre", "--f", "q.csv", "--dual-step", step, "--out", "o.csv"]) == 2
    assert "finite and positive" in capsys.readouterr().err


# --- typed errors on the loss subcommands: each exits 2 ---

LOSS_COMMANDS = {
    "div": ["div", "eval", "--loss", "mmd", "--mu", "mu.csv", "--mu0", "mu0.csv"],
    "disc": ["disc", "eval", "--loss", "mmd", "--mu", "mu.csv", "--mu0", "mu0.csv", "--at", "0.1"],
    "smooth": ["smooth", "report", "--loss", "mmd", "--trials", "2", "--grid-pts", "11"],
}


# 1/1e-310 overflows: the Gram would put NaN on coincident points
@pytest.mark.parametrize("sigma_sq", ["0", "-1", "nan", "inf", "1e-310"])
@pytest.mark.parametrize("command", list(LOSS_COMMANDS))
def test_bad_sigma_sq_exit_2(workdir, capsys, command, sigma_sq):
    assert main(LOSS_COMMANDS[command] + ["--sigma-sq", sigma_sq]) == 2
    assert "sigma_sq must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("loss", ["js", "ns", "mmd", "w1"])
def test_div_eval_refuses_a_weight_total_that_overflows(workdir, capsys, loss):
    (workdir / "big.csv").write_text("x_1,w\n0,1e308\n1,1e308\n")
    assert main(["div", "eval", "--loss", loss, "--mu", "big.csv", "--mu0", "mu0.csv"]) == 2
    assert "finite total" in capsys.readouterr().err


def test_rkhs_series_refuses_centers_whose_merged_weight_overflows(workdir, capsys):
    # two coefficients of 1e308 on one center merge to inf: refused, not printed as inf sums
    (workdir / "big.csv").write_text("x_1,w\n0,1e308\n0,1e308\n")
    assert main(["rkhs", "series", "--centers", "big.csv", "--order", "3"]) == 2
    captured = capsys.readouterr()
    assert "finite total" in captured.err and captured.out == ""


@pytest.mark.parametrize("at", ["abc", "0.1,x", "nan", "inf", "0.1,0.2"])
def test_disc_eval_bad_point_exit_2(workdir, at):
    assert main(LOSS_COMMANDS["disc"] + ["--at", at]) == 2


@pytest.mark.parametrize("extra", [["--d", "0"], ["--d", "-1"], ["--trials", "0"],
                                   ["--grid-pts", "1"]])
def test_smooth_report_bad_sizes_exit_2(workdir, extra):
    assert main(["smooth", "report", "--loss", "w1", "--trials", "2", "--grid-pts", "11",
                 *extra]) == 2


# --- typed errors on the other subcommands: each exits 2 ---

@pytest.mark.parametrize("argv", [
    ["env", "ph", "--f", "q.csv", "--out", "o.csv"],
    ["env", "moreau", "--f", "q.csv", "--out", "o.csv"],
    ["env", "infconv", "--f", "q.csv", "--out", "o.csv"],
    ["nn", "specnorm"],
    ["nn", "init"],
])
def test_missing_option_exit_2(workdir, capsys, argv):
    _quad_grid(workdir)
    assert main(argv) == 2
    assert "this command needs --" in capsys.readouterr().err
    assert not (workdir / "o.csv").exists()


def test_nn_specnorm_normalize_without_out_exit_2(workdir, capsys):
    assert main(["nn", "init", "--out", "net.json"]) == 0
    assert main(["nn", "specnorm", "--net", "net.json", "--normalize"]) == 2
    assert "this command needs --out" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--width", "--input-dim"])
def test_nn_init_zero_size_exit_2(workdir, flag):
    assert main(["nn", "init", flag, "0", "--out", "net.json"]) == 2


@pytest.mark.parametrize("ratios", ["a", "1,nan"])
def test_sweep_bad_ratios_exit_2(workdir, ratios):
    assert main(["sweep", "--ratios", ratios, "--seeds", "1", "--n", "4", "--steps", "3",
                 "--out", "s.csv"]) == 2


def test_train_json_writes_non_finite_numbers_as_null(workdir):
    assert main(["train", "particles", "--n", "4", "--steps", "50", "--lr-ratio", "1e200",
                 "--format", "json", "--out", "t.json"]) == 0
    body = json.loads((workdir / "t.json").read_text(), parse_constant=_refuse_constant)
    assert body["loss"][0] == pytest.approx(0.2597, abs=1e-4)
    assert body["loss"][1] is None and body["grad_norm"][1] is None and body["diverged"]


def test_smooth_report_json_writes_nan_as_null(workdir, capsys, monkeypatch):
    from smoothgan.smoothness import OracleFamily

    monkeypatch.setattr(OracleFamily, "grad", lambda self, mu, mu0, x: np.full(x.shape, np.nan))
    assert main(LOSS_COMMANDS["smooth"] + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert [report[k] for k in ("alpha_hat", "beta1_hat", "beta2_hat")] == [None] * 3
    assert report["n_trials"] == 2 and report["beta1_saturated"] is False


def test_train_particles_diverged_min_grad_norm_finite(workdir, capsys):
    # the last row overflows; the least gradient norm of the rows before it is still reported
    assert main(["train", "particles", "--target", "ring", "--n", "8", "--lr-ratio", "1e300",
                 "--steps", "5", "--seed", "1", "--out", "t.csv"]) == 0
    out = capsys.readouterr().out
    assert "diverged True" in out
    assert math.isfinite(float(out.split("min_grad_norm ")[1].split()[0]))


def test_min_grad_norm_skips_non_finite_rows():
    ones = np.ones(3)
    assert TrainTrace(ones, np.array([0.5, 0.2, np.nan]), ones, True).min_grad_norm == 0.2
    assert math.isnan(TrainTrace(ones, np.array([np.nan, np.inf, np.nan]), ones,
                                 True).min_grad_norm)


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_train_particles_non_finite_lr_ratio_exit_2(workdir, ratio):
    assert main(["train", "particles", "--n", "4", "--steps", "3", "--lr-ratio", ratio,
                 "--out", "t.csv"]) == 2


@pytest.mark.parametrize("argv", [
    ["nn", "init", "--final-scale", "nan"],
    ["nn", "init", "--final-scale", "inf"],
    ["rkhs", "series", "--centers", "mu0.csv", "--quad-step", "0"],
    ["rkhs", "series", "--centers", "mu0.csv", "--quad-step", "nan"],
    ["rkhs", "series", "--centers", "mu0.csv", "--quad-step", "-0.001"],
    ["rkhs", "series", "--centers", "mu0.csv", "--order", "-1"],
    ["rkhs", "series", "--centers", "mu2.csv"],
], ids=["final-scale-nan", "final-scale-inf", "quad-step-0", "quad-step-nan", "quad-step-neg",
        "order-neg", "centers-2d"])
def test_bad_numeric_option_exit_2(workdir, capsys, argv):
    assert main(argv + ["--out", "o.out"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (workdir / "o.out").exists()


@pytest.mark.parametrize("argv", [
    ["env", "legendre", "--f", "q.csv", "--dual-lo=-1e6", "--dual-hi", "1e6", "--dual-step",
     "1e-3"],
    ["rkhs", "series", "--centers", "mu0.csv", "--quad-lo=-1e6", "--quad-hi", "1e6"],
    ["train", "particles", "--n=100000", "--steps", "1"],
    ["sweep", "--ratios", "1", "--seeds", "1", "--n=100000", "--steps", "1"],
    ["smooth", "report", "--loss", "mmd", "--grid-pts=1000000000"],
    ["smooth", "report", "--loss", "mmd", "--d=1000000000"],
    ["smooth", "report", "--loss", "mmd", "--trials=1000000000"],
    ["nn", "init", "--width=1000000000"],
    ["nn", "init", "--depth=1000000000"],
    ["nn", "init", "--input-dim=1000000000"],
    ["train", "particles", "--n", "4", "--steps=1000000000"],
    ["sweep", "--ratios", "1", "--seeds", "1", "--n", "4", "--steps=1000000000"],
    ["env", "moreau", "--f", "diag.csv", "--beta", "1"],
    ["train", "particles", "--n=1000000000", "--steps", "1"],
    ["train", "gan2d", "--config", "big.json"],
], ids=["dual-grid", "quadrature-grid", "train-gram", "sweep-gram", "smooth-grid-pts",
        "smooth-d", "smooth-trials", "nn-width", "nn-depth", "nn-input-dim", "train-steps",
        "sweep-steps", "grid-csv", "train-target", "gan2d-target"])
def test_oversized_grid_exit_2(workdir, capsys, argv):
    # 2e9 grid cells, a 1e10-cell kernel Gram (74.5 GiB), a 1e9-coordinate evaluation
    # cloud, a net of over 1e9 parameters, 1e9 steps (8 GB of trace), 1e9 estimator
    # trials (hours of work), a 55 KB grid CSV whose 4000 diagonal points span 1.6e7
    # cells, or a target of 1e9 points (16 GB): refused before numpy is asked for the
    # memory or the time
    _quad_grid(workdir)
    (workdir / "diag.csv").write_text(
        "x,y,value\n" + "".join(f"{i / 1000},{i / 1000},0\n" for i in range(4000)))
    (workdir / "big.json").write_text('{"target": {"kind": "ring", "n": 1000000000}}')
    assert main(argv + ["--out", "o.out"]) == 2
    assert "exceed" in capsys.readouterr().err
    assert not (workdir / "o.out").exists()


def test_failed_transport_lp_exit_2(workdir, capsys, monkeypatch):
    # a pair whose matrix-minimum start is not optimal, with no pivot allowed
    monkeypatch.setattr("smoothgan.divergences._LP_PIVOTS_PER_NODE", 0)
    (workdir / "p2.csv").write_text("x_1,x_2,w\n0,0,0.5\n3,0,0.5\n")
    (workdir / "q2.csv").write_text("x_1,x_2,w\n2,0,0.5\n5,0,0.5\n")
    assert main(["div", "eval", "--loss", "w1", "--mu", "p2.csv", "--mu0", "q2.csv"]) == 2
    err = capsys.readouterr().err
    assert "transport LP failed" in err and "Traceback" not in err


def test_scipy_loads_on_first_use(tmp_path):
    # a fresh interpreter, since this one has loaded scipy already
    script = textwrap.dedent("""
        import json, sys
        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        from smoothgan.cli import main
        seen = {"import": scipy_modules()}
        code = main(["train", "particles", "--n", "4", "--steps", "3", "--out", "t.csv"])
        seen["train"] = (code, scipy_modules())
        from smoothgan.divergences import w1_lp
        from smoothgan.measures import make_discrete
        w1_lp(make_discrete([[0.0, 0.0], [3.0, 0.0]], [0.5, 0.5]),
              make_discrete([[2.0, 0.0], [5.0, 0.0]], [0.5, 0.5]))
        seen["w1_lp"] = scipy_modules()
        from smoothgan.divergences import LossKind
        from smoothgan.smoothness import bregman
        half = make_discrete([0.0, 1.0], [0.5, 0.5])
        bregman(LossKind("minimax_js", half), half, half)
        seen["js_bregman"] = "scipy.special" in sys.modules
        print(json.dumps(seen))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == {
        "import": [], "train": [0, []], "w1_lp": [], "js_bregman": True}


# --- every numeric option against 0, -1, nan, inf and a non-number ---

def _numeric_options(parser, path=()):
    """(subcommand path, option string) for every int or float option, walking subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _numeric_options(sub, path + (name,))
        elif action.type in (int, float) and action.option_strings:
            yield " ".join(path), action.option_strings[0]


# small valid invocations; the option under test is appended and wins over these
_FIXTURE_ARGV = {
    "div eval": ["div", "eval", "--loss", "mmd", "--mu", "mu.csv", "--mu0", "mu0.csv"],
    "disc eval": LOSS_COMMANDS["disc"],
    "smooth report": ["smooth", "report", "--loss", "mmd", "--trials", "2", "--grid-pts", "11",
                      "--out", "o.json"],
    "env": ["env", "legendre", "--f", "q.csv", "--alpha", "1", "--beta", "1", "--dual-lo", "-1",
            "--dual-hi", "1", "--dual-step", "0.25", "--out", "o.csv"],
    "rkhs series": ["rkhs", "series", "--centers", "mu0.csv", "--order", "3", "--out", "o.csv"],
    "nn": ["nn", "init", "--width", "3", "--depth", "2", "--out", "o.json"],
    "train": ["train", "particles", "--n", "4", "--steps", "3", "--out", "o.csv"],
    "sweep": ["sweep", "--ratios", "1", "--seeds", "1", "--n", "4", "--steps", "3",
              "--out", "o.csv"],
}
_ENV_OP = {"--alpha": "ph", "--beta": "moreau"}           # the op that reads the option
# options for which these of 0 and -1 are legitimate; every other bad value exits 2
_ZERO_OR_NEG_OK = {
    ("smooth report", "--seed"): {"0"},
    ("nn", "--seed"): {"0"},
    ("nn", "--final-scale"): {"0", "-1"},                 # a zero or sign-flipped output layer
    ("train", "--seed"): {"0"},
    ("sweep", "--seed"): {"0"},
    ("rkhs series", "--order"): {"0"},
    ("env", "--dual-lo"): {"0", "-1"},                     # a signed bound below --dual-hi 1
    ("env", "--dual-hi"): {"0"},
}
_NUMERIC_CASES = [(cmd, opt, value) for cmd, opt in _numeric_options(build_parser())
                  for value in ("0", "-1", "nan", "inf", "x")]


def test_numeric_option_table_is_complete():
    assert {cmd for cmd, _, _ in _NUMERIC_CASES} == set(_FIXTURE_ARGV)
    assert set(_ZERO_OR_NEG_OK) <= {(cmd, opt) for cmd, opt, _ in _NUMERIC_CASES}


@pytest.mark.parametrize("cmd, option, value", _NUMERIC_CASES,
                         ids=[f"{c} {o}={v}" for c, o, v in _NUMERIC_CASES])
def test_numeric_option_bad_values(workdir, capsys, cmd, option, value):
    _quad_grid(workdir)
    argv = list(_FIXTURE_ARGV[cmd])
    if cmd == "env":
        argv[1] = _ENV_OP.get(option, "legendre")
    inputs = set(workdir.iterdir())
    try:
        code = main(argv + [f"{option}={value}"])
    except SystemExit as exc:                              # argparse rejects a non-number
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert code == (0 if value in _ZERO_OR_NEG_OK.get((cmd, option), ()) else 2)
    if code == 0:                                          # manifests echo argv and paths
        written = [p.read_text() for p in set(workdir.iterdir()) - inputs
                   if not p.name.endswith(".manifest.json")]
        assert written or out
        assert "nan" not in (out + "".join(written)).lower()


_GAN2D_BAD = {
    "n_steps 0": {"n_steps": 0},
    "n_steps -1": {"n_steps": -1},
    "n_steps 2.5": {"n_steps": 2.5},
    "beta2 0": {"beta2": 0},
    "width a": {"width": "a"},
    "depth 1.5": {"depth": 1.5},
    "lr_disc x": {"lr_disc": "x"},
    "lr_gen nan": {"lr_gen": "nan"},
    "interpolation no": {"interpolation": "no"},
    "target.n 2.5": {"target": {"kind": "ring", "n": 2.5}},
    "target.seed -1": {"target": {"kind": "ring", "n": 8, "seed": -1}},
    "generator_init NaN": {"generator_init": [[math.nan, 0.0]] + [[0.0, 0.0]] * 7},
    "generator_init 1e200": {"generator_init": [[1e200, 0.0]] + [[0.0, 0.0]] * 7},
}


@pytest.mark.parametrize("label", list(_GAN2D_BAD))
def test_gan2d_bad_config_exit_2(workdir, capsys, label):
    cfg = {"target": {"kind": "ring", "n": 8}, "n_steps": 2, **_GAN2D_BAD[label]}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "gan2d", "--config", "cfg.json", "--out", "g.csv"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (workdir / "g.csv").exists()


def test_gan2d_overflowing_discriminator_diverges(workdir, capsys):
    cfg = {"target": {"kind": "grid_uniform", "n": 16}, "n_steps": 3, "final_scale": 1e308}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "gan2d", "--config", "cfg.json", "--out", "g.csv"]) == 0
    out, err = capsys.readouterr()
    assert "diverged True" in out and "Warning" not in err
    assert (workdir / "g.csv").read_text().strip().endswith("diverged")
