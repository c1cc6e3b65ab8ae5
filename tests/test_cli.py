"""CLI behavior: values, determinism, manifests, error handling."""

import argparse
import json
import math

import numpy as np
import pytest

from smoothgan.cli import build_parser, main

MU_CSV = "x_1,w\n0.3,1\n"
MU0_CSV = "x_1,w\n0,1\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "mu.csv").write_text(MU_CSV)
    (tmp_path / "mu0.csv").write_text(MU0_CSV)
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


def test_plotdata_trace(workdir):
    main(["train", "particles", "--target", "ring", "--n", "8", "--steps", "3",
          "--seed", "7", "--out", "t.csv"])
    assert main(["plotdata", "t.csv", "--out", "series.dat"]) == 0
    lines = (workdir / "series.dat").read_text().strip().splitlines()
    assert len(lines) == 3
    step, grad = lines[0].split()
    assert step == "0" and float(grad) > 0


def test_plotdata_rejects_garbage(workdir):
    (workdir / "bad.csv").write_text("a,b\n1,2\n")
    assert main(["plotdata", "bad.csv", "--out", "series.dat"]) == 2
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


def test_missing_file_exit_2(workdir):
    assert main(["div", "eval", "--loss", "w1", "--mu", "absent.csv",
                 "--mu0", "mu0.csv"]) == 2


def test_non_finite_weight_exit_2(workdir, capsys):
    (workdir / "bad.csv").write_text("x_1,w\n0.3,nan\n0.5,1\n")
    assert main(["div", "eval", "--loss", "mmd", "--mu", "bad.csv", "--mu0", "mu0.csv"]) == 2
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


def test_malformed_net_and_grid_exit_2(workdir):
    (workdir / "net.json").write_text('{"layers": [{"shape": [2, 3], "weights": [1]}]}')
    assert main(["nn", "specnorm", "--net", "net.json"]) == 2
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


@pytest.mark.parametrize("sigma_sq", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", list(LOSS_COMMANDS))
def test_bad_sigma_sq_exit_2(workdir, capsys, command, sigma_sq):
    assert main(LOSS_COMMANDS[command] + ["--sigma-sq", sigma_sq]) == 2
    assert "sigma_sq must be finite and positive" in capsys.readouterr().err


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
], ids=["final-scale-nan", "final-scale-inf", "quad-step-0", "quad-step-nan", "quad-step-neg",
        "order-neg"])
def test_bad_numeric_option_exit_2(workdir, capsys, argv):
    assert main(argv + ["--out", "o.out"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (workdir / "o.out").exists()


@pytest.mark.parametrize("argv", [
    ["env", "legendre", "--f", "q.csv", "--dual-lo=-1e6", "--dual-hi", "1e6", "--dual-step",
     "1e-3"],
    ["rkhs", "series", "--centers", "mu0.csv", "--quad-lo=-1e6", "--quad-hi", "1e6"],
], ids=["dual-grid", "quadrature-grid"])
def test_oversized_grid_exit_2(workdir, capsys, argv):
    # 2e9 cells: refused before numpy is asked for the memory
    _quad_grid(workdir)
    assert main(argv + ["--out", "o.out"]) == 2
    assert "exceed" in capsys.readouterr().err
    assert not (workdir / "o.out").exists()


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
