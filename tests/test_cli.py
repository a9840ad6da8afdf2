"""End-to-end tests of the command-line interface."""

import io
import re
import shlex
import struct
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcflow import cli, dataio, toy
from pcflow.conditioner import DenseNet
from pcflow.errors import NumericError, PcflowError
from pcflow.flow import FlowModel, load_model, save_model
from test_train import fail_on_call


def run(argv):
    return cli.main(argv)


def raw_csv_lines(n_days=12, period_length=24, with_capacity=False, seed=0):
    rng = np.random.default_rng(seed)
    interval = (24 * 60) // period_length
    lines = ["time,value" + (",cap" if with_capacity else "")]
    for day in range(1, n_days + 1):
        for i in range(period_length):
            minutes = i * interval
            stamp = f"2013-01-{day:02d}T{minutes // 60:02d}:{minutes % 60:02d}:00"
            value = rng.uniform(0, 80)
            row = f"{stamp},{value!r}"
            if with_capacity:
                row += ",100.0"
            lines.append(row)
    return lines


def write_raw_csv(path, **kwargs):
    path.write_text("\n".join(raw_csv_lines(**kwargs)) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def prepared(tmp_path):
    raw = write_raw_csv(tmp_path / "raw.csv")
    out = tmp_path / "prep"
    assert run(["prepare", "--input", raw, "--period-length", "24",
                "--scaling", "minmax", "--out-dir", str(out), "--no-timestamp"]) == 0
    return out / "scenarios.csv"


# prepare ----------------------------------------------------------------


def test_prepare_minmax(prepared):
    scenario_set = dataio.load_scenarios(prepared)
    assert scenario_set.scaling == "minmax"
    assert scenario_set.data.min() >= 0.0 and scenario_set.data.max() <= 1.0


def test_prepare_capacity_factor(tmp_path):
    raw = write_raw_csv(tmp_path / "raw.csv", with_capacity=True)
    out = tmp_path / "prep"
    assert run(["prepare", "--input", raw, "--period-length", "24",
                "--scaling", "capacity_factor", "--capacity-col", "cap",
                "--out-dir", str(out), "--no-timestamp"]) == 0
    scenario_set = dataio.load_scenarios(out / "scenarios.csv")
    assert scenario_set.scaling == "capacity_factor"
    assert scenario_set.data.max() <= 1.0


def test_prepare_capacity_without_column_is_usage_error(tmp_path):
    raw = write_raw_csv(tmp_path / "raw.csv")
    assert run(["prepare", "--input", raw, "--period-length", "24",
                "--scaling", "capacity_factor",
                "--out-dir", str(tmp_path / "o")]) == cli.EXIT_USAGE


def test_prepare_missing_file_is_data_error(tmp_path):
    assert run(["prepare", "--input", str(tmp_path / "nope.csv"),
                "--out-dir", str(tmp_path / "o")]) == cli.EXIT_DATA


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run(["prepare"])
    assert err.value.code == 2


def readme_commands():
    """The argv of each `pcflow ...` line in the README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("pcflow ")]


def test_readme_commands_parse():
    parser = cli.build_parser()
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(parser._subparsers._group_actions[0].choices)
    for argv in commands:
        err = io.StringIO()
        try:
            with redirect_stderr(err):
                parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command {shlex.join(['pcflow', *argv])}: {err.getvalue()}")


# train / sample ---------------------------------------------------------


def train_args(prepared, out, extra=()):
    return ["train", "--data", str(prepared), "--out-dir", str(out),
            "--epochs", "3", "--no-timestamp", *extra]


def test_train_pcf_writes_model_and_log(prepared, tmp_path):
    out = tmp_path / "run"
    assert run(train_args(prepared, out, ["--mode", "pcf", "--cev", "0.999"])) == 0
    model = load_model(out / "model.pcf")
    assert model.pca is not None
    assert (out / "trainlog.csv").read_text().startswith("epoch,")


def test_train_cev_and_components_exclusive(prepared, tmp_path):
    assert run(train_args(prepared, tmp_path / "x",
                          ["--cev", "0.99", "--components", "2"])) == cli.EXIT_USAGE


def test_train_deterministic_model_files(prepared, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["--mode", "pcf", "--components", "2", "--seed", "5"]
    assert run(train_args(prepared, out_a, args)) == 0
    assert run(train_args(prepared, out_b, args)) == 0
    assert (out_a / "model.pcf").read_bytes() == (out_b / "model.pcf").read_bytes()
    assert (out_a / "trainlog.csv").read_bytes() == (out_b / "trainlog.csv").read_bytes()


def test_sample_row_count_and_determinism(prepared, tmp_path):
    out = tmp_path / "run"
    assert run(train_args(prepared, out, ["--mode", "pcf", "--components", "2"])) == 0
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    for s in (s1, s2):
        assert run(["sample", "--model", str(out / "model.pcf"), "--n", "40",
                    "--seed", "9", "--out-dir", str(s), "--no-timestamp"]) == 0
    samples = dataio.load_scenarios(s1 / "samples.csv")
    assert samples.n_scenarios == 40
    assert (s1 / "samples.csv").read_bytes() == (s2 / "samples.csv").read_bytes()


def test_sample_original_units(prepared, tmp_path):
    out = tmp_path / "run"
    assert run(train_args(prepared, out, ["--mode", "pcf", "--components", "2"])) == 0
    s = tmp_path / "s"
    assert run(["sample", "--model", str(out / "model.pcf"), "--n", "30",
                "--original-units", "--out-dir", str(s), "--no-timestamp"]) == 0
    samples = dataio.load_scenarios(s / "samples.csv")
    # de-scaled values live on the raw scale, not in [0, 1]
    assert samples.scaling == "none"
    assert samples.data.max() > 2.0
    # the minmax inversion, as sample wrote it before it called dataio.unscale
    model = load_model(out / "model.pcf")
    data = model.sample(30, 2).data  # sample draws with --seed + 2
    data = data * (model.scale_max - model.scale_min) + model.scale_min
    dataio.save_scenarios(dataio.ScenarioSet(data=data, period_length=24, interval_minutes=60),
                          tmp_path / "expected.csv")
    for suffix in ("", ".meta"):
        assert ((s / f"samples.csv{suffix}").read_bytes()
                == (tmp_path / f"expected.csv{suffix}").read_bytes())


@pytest.mark.parametrize("scaling", ["minmax", "capacity_factor", "none"])
def test_samples_carry_their_models_units_into_eval(tmp_path, scaling):
    raw = write_raw_csv(tmp_path / "raw.csv", with_capacity=True)
    prep, out, s = tmp_path / "prep", tmp_path / "run", tmp_path / "s"
    assert run(["prepare", "--input", raw, "--period-length", "24", "--scaling", scaling,
                "--capacity-col", "cap", "--out-dir", str(prep), "--no-timestamp"]) == 0
    assert run(train_args(prep / "scenarios.csv", out, ["--components", "2"])) == 0
    assert run(["sample", "--model", str(out / "model.pcf"), "--n", "30", "--out-dir", str(s),
                "--no-timestamp"]) == 0
    units = ("scaling", "scale_min", "scale_max")
    prepared = dataio.load_scenarios(prep / "scenarios.csv")
    samples = dataio.load_scenarios(s / "samples.csv")
    model = load_model(out / "model.pcf")
    assert ([getattr(samples, key) for key in units] == [getattr(model, key) for key in units]
            == [getattr(prepared, key) for key in units])
    assert prepared.scaling == scaling
    code, err = exit_code(["eval", "--historical", str(prep / "scenarios.csv"),
                           "--generated", str(s / "samples.csv"), "--out-dir",
                           str(tmp_path / "r"), "--no-timestamp"])
    assert code == 0, err


def test_eval_of_original_units_against_the_scaled_set_is_usage_error(prepared, tmp_path):
    out, s = tmp_path / "run", tmp_path / "s"
    assert run(train_args(prepared, out, ["--components", "2"])) == 0
    assert run(["sample", "--model", str(out / "model.pcf"), "--n", "30", "--original-units",
                "--out-dir", str(s), "--no-timestamp"]) == 0
    code, err = exit_code(["eval", "--historical", str(prepared), "--generated",
                           str(s / "samples.csv"), "--out-dir", str(tmp_path / "r")])
    assert code == cli.EXIT_USAGE
    assert err == "error: sets must have equal scaling, got 'minmax' and 'none'\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("scaling", ["capacity_factor", "none"])
def test_sample_original_units_needs_minmax_scaling(tmp_path, scaling):
    raw = write_raw_csv(tmp_path / "raw.csv", with_capacity=True)
    prep, out, s = tmp_path / "prep", tmp_path / "run", tmp_path / "s"
    assert run(["prepare", "--input", raw, "--period-length", "24", "--scaling", scaling,
                "--capacity-col", "cap", "--out-dir", str(prep), "--no-timestamp"]) == 0
    assert run(train_args(prep / "scenarios.csv", out, ["--components", "2"])) == 0
    assert load_model(out / "model.pcf").scaling == scaling
    code, err = exit_code(["sample", "--model", str(out / "model.pcf"), "--n", "30",
                           "--original-units", "--out-dir", str(s), "--no-timestamp"])
    assert code == cli.EXIT_USAGE
    assert err == "error: only minmax scaling can be inverted without a capacity series\n"
    assert not s.exists()


def test_sample_bad_model_path(tmp_path):
    assert run(["sample", "--model", str(tmp_path / "nope.pcf"),
                "--out-dir", str(tmp_path)]) == cli.EXIT_DATA


# eval -------------------------------------------------------------------


def test_eval_identical_sets(prepared, tmp_path):
    out = tmp_path / "report"
    assert run(["eval", "--historical", str(prepared), "--generated", str(prepared),
                "--out-dir", str(out), "--no-timestamp"]) == 0
    ks = (out / "ks.txt").read_text()
    assert "statistic=0.0" in ks
    assert "p_value=1.0" in ks
    for name in ("kde.csv", "psd.csv", "cev.csv", "marginals.csv", "summary.txt"):
        assert (out / name).exists()


def test_eval_deterministic_outputs(prepared, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["eval", "--historical", str(prepared), "--generated", str(prepared),
                    "--out-dir", str(out), "--no-timestamp"]) == 0
        outs.append(out)
    for name in ("kde.csv", "psd.csv", "ks.txt", "cev.csv", "marginals.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("stamp", [True, False])
def test_text_outputs_start_with_one_timestamp_line(tmp_path, stamp):
    # every text file the commands write; the .meta sidecars and the binary
    # model file never carry one
    flags = [] if stamp else ["--no-timestamp"]
    raw = write_raw_csv(tmp_path / "raw.csv")
    prep, run_dir = tmp_path / "prep" / "scenarios.csv", tmp_path / "run"
    samples = tmp_path / "samples" / "samples.csv"
    for argv in (["prepare", "--input", raw, "--period-length", "24",
                  "--out-dir", str(prep.parent)],
                 ["train", "--data", str(prep), "--components", "2", "--epochs", "2",
                  "--out-dir", str(run_dir)],
                 ["sample", "--model", str(run_dir / "model.pcf"), "--n", "20",
                  "--out-dir", str(samples.parent)],
                 ["eval", "--historical", str(prep), "--generated", str(samples),
                  "--out-dir", str(tmp_path / "report")],
                 ["toy", "--mode", "fsnf", "--n", "60", "--epochs", "2",
                  "--out-dir", str(tmp_path / "toy")]):
        assert run([*argv, *flags]) == 0
    written = sorted(path for path in tmp_path.rglob("*") if path.is_file()
                     and path.suffix not in (".meta", ".pcf") and path != Path(raw))
    assert len(written) == 12, written
    for path in written:
        lines = path.read_text(encoding="utf-8").splitlines()
        stamps = [i for i, line in enumerate(lines) if line.startswith("# generated ")]
        assert stamps == ([0] if stamp else []), path


# toy --------------------------------------------------------------------


def test_toy_curve1d_pcf_quick(tmp_path):
    out = tmp_path / "toy"
    assert run(["toy", "--shape", "curve1d", "--mode", "pcf", "--n", "400",
                "--epochs", "3", "--out-dir", str(out), "--no-timestamp"]) == 0
    metrics = (out / "metrics.txt").read_text()
    assert "fraction_within_0.05=" in metrics
    assert "mean_distance_to_manifold=" in metrics
    assert (out / "samples.csv").exists()
    assert (out / "trainlog.csv").exists()


def test_toy_kite2d_fsnf_quick(tmp_path):
    out = tmp_path / "toy"
    assert run(["toy", "--shape", "kite2d", "--mode", "fsnf", "--n", "300",
                "--epochs", "3", "--out-dir", str(out), "--no-timestamp"]) == 0
    assert "diverged=False" in (out / "metrics.txt").read_text()


def test_toy_shows_the_dimension_one_warning_as_one_line(tmp_path, capsys):
    # curve1d data always reduce to one principal component
    assert run(["toy", "--n", "300", "--epochs", "2", "--out-dir", str(tmp_path / "toy"),
                "--no-timestamp"]) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "dimension 1" in line] == [
        "warning: flow dimension 1: coupling layers cannot act; "
        "falling back to a standardizer-only Gaussian model"]
    assert "UserWarning" not in err and "build_flow" not in err


def test_warning_filters_still_decide_under_the_cli(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="flow dimension 1"):
            run(["toy", "--n", "300", "--epochs", "2", "--out-dir", str(tmp_path / "toy"),
                 "--no-timestamp"])


def fail_first_gradient(monkeypatch):
    def failing(self, *args, **kwargs):
        raise NumericError("injected")

    monkeypatch.setattr(FlowModel, "nll_and_grads", failing)


NO_EPOCH = "no epoch completed; initial parameters kept"


@pytest.mark.parametrize("mode", ["fsnf", "pcf"])
def test_train_diverging_before_an_epoch_says_no_epoch_completed(prepared, tmp_path, capsys,
                                                                  monkeypatch, mode):
    out = tmp_path / "run"
    fail_first_gradient(monkeypatch)
    assert run(train_args(prepared, out, ["--mode", mode, "--allow-divergence"])) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"training diverged at epoch 0; {NO_EPOCH}", f"wrote {out / 'model.pcf'} ({NO_EPOCH})"]
    assert (out / "trainlog.csv").read_text() == (
        f"epoch,train_nll,val_nll\n# best_epoch=none ({NO_EPOCH})\n# diverged_at_epoch=0\n")


@pytest.mark.parametrize("mode", ["fsnf", "pcf"])
def test_train_divergence_exits_numeric_without_allow_divergence(prepared, tmp_path, capsys,
                                                                 monkeypatch, mode):
    # 10 training rows make one batch an epoch, so the 2nd gradient call is in epoch 1
    one_epoch, out = tmp_path / "one", tmp_path / "run"
    assert run(train_args(prepared, one_epoch, ["--mode", mode, "--epochs", "1"])) == 0
    capsys.readouterr()
    fail_on_call(monkeypatch, "nll_and_grads", 2)
    assert run(train_args(prepared, out, ["--mode", mode])) == cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.err == (
        "error: training diverged (re-run with --allow-divergence to accept)\n")
    assert captured.out == "training diverged at epoch 1; best checkpoint from epoch 0 kept\n"
    # the outputs are still written, holding the epoch-0 checkpoint
    assert (out / "model.pcf").read_bytes() == (one_epoch / "model.pcf").read_bytes()
    assert (out / "trainlog.csv").read_text().endswith(
        "# best_epoch=0\n# diverged_at_epoch=1\n")


# at the default CEV a pcf curve1d flow is one-dimensional and takes no gradient step
@pytest.mark.parametrize("flags", [["--mode", "fsnf"], ["--mode", "pcf", "--cev", "1.0"]],
                         ids=["fsnf", "pcf"])
def test_toy_diverging_before_an_epoch_says_no_epoch_completed(tmp_path, monkeypatch, flags):
    out = tmp_path / "toy"
    fail_first_gradient(monkeypatch)
    assert run(["toy", *flags, "--n", "300", "--epochs", "3", "--out-dir", str(out),
                "--no-timestamp"]) == 0
    metrics = (out / "metrics.txt").read_text().splitlines()
    assert metrics[2:4] == [f"best_epoch=none ({NO_EPOCH})", "diverged=True"]


# config file ------------------------------------------------------------


def test_config_file_overrides_defaults(prepared, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("epochs=2\nmode=pcf\ncomponents=2\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run(["train", "--data", str(prepared), "--config", str(config),
                "--out-dir", str(out), "--no-timestamp"]) == 0
    log = (out / "trainlog.csv").read_text()
    assert log.count("\n") == 4  # header + 2 epochs + best-epoch trailer


# error contract ---------------------------------------------------------


def exit_code(argv):
    """Exit code and stderr of ``main``, counting argparse's exits too."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def write_scenarios(directory, rows, meta):
    path = Path(directory) / "scen.csv"
    # surrogateescape writes "\udcff" as the raw byte 0xff, which is not UTF-8
    path.write_text("\n".join(rows) + "\n", encoding="utf-8", errors="surrogateescape")
    Path(f"{path}.meta").write_text("\n".join(meta) + "\n", encoding="utf-8")
    return path


GOOD_ROWS = [",".join(repr(float(v)) for v in row)
             for row in np.random.default_rng(0).uniform(size=(8, 4))]
GOOD_META = ["period_length=4", "interval_minutes=360", "scaling=none"]


def test_config_file_rejects_unknown_key(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("epoch=3\n", encoding="utf-8")
    code, err = exit_code(["toy", "--mode", "fsnf", "--config", str(config),
                           "--out-dir", str(tmp_path / "toy"), "--no-timestamp"])
    assert code == cli.EXIT_USAGE
    assert "unknown key in 'epoch=3'" in err
    assert not (tmp_path / "toy").exists()


@pytest.mark.parametrize("line", ["help=true", "help=false", "config=other.cfg"])
def test_config_file_holds_settings_only(prepared, tmp_path, line):
    # help would print the usage and skip the command; a nested config would be ignored
    config = tmp_path / "run.cfg"
    config.write_text(f"epochs=2\n{line}\n", encoding="utf-8")
    out = tmp_path / "run"
    code, err = exit_code(["train", "--data", str(prepared), "--config", str(config),
                           "--out-dir", str(out)])
    assert code == cli.EXIT_USAGE
    assert f"line 2: unknown key in {line!r}" in err
    assert not out.exists()


def test_config_file_serves_every_subcommand(prepared, tmp_path):
    # eval ignores the training keys and the seed, and train ignores the eval keys
    config = tmp_path / "run.cfg"
    config.write_text("epochs=2\ncomponents=2\nbandwidth=0.05\nseed=3\n", encoding="utf-8")
    assert run(["train", "--data", str(prepared), "--config", str(config),
                "--out-dir", str(tmp_path / "run"), "--no-timestamp"]) == 0
    assert run(["eval", "--historical", str(prepared), "--generated", str(prepared),
                "--config", str(config), "--out-dir", str(tmp_path / "report"),
                "--no-timestamp"]) == 0
    assert "kde_bandwidth: 0.05" in (tmp_path / "report" / "summary.txt").read_text()


@pytest.mark.parametrize("line", ["epochs=2.5", "mode=nope", "no_timestamp=maybe", "garbage"])
def test_config_file_bad_values_are_usage_errors(prepared, tmp_path, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    argv = ["train", "--data", str(prepared), "--config", str(config),
            "--out-dir", str(tmp_path / "run")]
    assert exit_code(argv)[0] == cli.EXIT_USAGE


def test_config_file_may_start_with_a_byte_order_mark(prepared, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("\ufeffepochs=2\ncomponents=2\n", encoding="utf-8")
    out = tmp_path / "run"
    code, err = exit_code(["train", "--data", str(prepared), "--config", str(config),
                           "--out-dir", str(out), "--no-timestamp"])
    assert code == 0, err
    assert (out / "trainlog.csv").read_text().count("\n") == 4


def copy_with_byte_order_mark(scenarios, directory):
    """The scenario CSV and its sidecar, each written with a leading U+FEFF."""
    directory.mkdir()
    path = directory / scenarios.name
    for src, dst in ((scenarios, path), (Path(f"{scenarios}.meta"), Path(f"{path}.meta"))):
        dst.write_text("\ufeff" + src.read_text(encoding="utf-8"), encoding="utf-8")
    return path


def test_train_reads_scenarios_with_a_byte_order_mark(prepared, tmp_path):
    marked = copy_with_byte_order_mark(prepared, tmp_path / "bom")
    args = ["--mode", "pcf", "--components", "2"]
    code, err = exit_code(train_args(marked, tmp_path / "a", args))
    assert code == 0, err
    assert run(train_args(prepared, tmp_path / "b", args)) == 0
    assert (tmp_path / "a" / "model.pcf").read_bytes() == (tmp_path / "b" / "model.pcf").read_bytes()


def test_eval_reads_scenarios_with_a_byte_order_mark(prepared, tmp_path):
    marked = copy_with_byte_order_mark(prepared, tmp_path / "bom")
    for data, out in ((marked, "a"), (prepared, "b")):
        code, err = exit_code(["eval", "--historical", str(data), "--generated", str(data),
                               "--out-dir", str(tmp_path / out), "--no-timestamp"])
        assert code == 0, err
    for name in ("kde.csv", "ks.txt", "psd.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("flag", ["--learning-rate=nan", "--learning-rate=inf",
                                  "--learning-rate=0", "--patience=-1"])
def test_train_and_toy_reject_bad_optimiser_flags(prepared, tmp_path, flag):
    name = "early_stop_patience" if "patience" in flag else "learning_rate"
    for argv in (train_args(prepared, tmp_path / "run", [flag]),
                 ["toy", "--mode", "fsnf", "--n", "50", "--epochs", "2", flag,
                  "--out-dir", str(tmp_path / "toy")]):
        code, err = exit_code(argv)
        assert code == cli.EXIT_USAGE, err
        assert name in err and "Traceback" not in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "toy").exists()


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command", ["train", "toy", "sample"])
def test_negative_seed_is_usage_error(prepared, trained_model, tmp_path, command, via_config):
    model = tmp_path / "model.pcf"
    model.write_bytes(trained_model)
    out = tmp_path / "out"
    argv = {"train": train_args(prepared, out),
            "toy": ["toy", "--n", "40", "--epochs", "2", "--out-dir", str(out)],
            "sample": ["sample", "--model", str(model), "--n", "4", "--out-dir", str(out)]}[command]
    if via_config:
        config = tmp_path / "run.cfg"
        config.write_text("seed=-1\n", encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        argv += ["--seed", "-5"]
    code, err = exit_code(argv)
    assert code == cli.EXIT_USAGE, err
    assert "argument --seed: must be >= 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["prepare", "eval"])
def test_seed_is_not_a_flag_of_commands_that_draw_nothing(prepared, tmp_path, command):
    argv = {"prepare": ["prepare", "--input", write_raw_csv(tmp_path / "raw.csv")],
            "eval": ["eval", "--historical", str(prepared), "--generated", str(prepared)]}
    code, err = exit_code([*argv[command], "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_USAGE, err
    assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", ["1", "0"])
def test_sample_n_below_two_is_usage_error(prepared, tmp_path, n):
    out = tmp_path / "run"
    assert run(train_args(prepared, out, ["--mode", "pcf", "--components", "2"])) == 0
    code, err = exit_code(["sample", "--model", str(out / "model.pcf"), f"--n={n}",
                           "--out-dir", str(tmp_path / "s")])
    assert code == cli.EXIT_USAGE
    assert f"n must be >= 2 to draw a scenario set, got {n}" in err
    assert "Traceback" not in err and not (tmp_path / "s").exists()


def oversized_n_exit(trained_model, tmp_path, command, n):
    model = tmp_path / "model.pcf"
    model.write_bytes(trained_model)
    out = tmp_path / "out"
    argv = {"toy": ["toy", "--epochs", "2"],
            "sample": ["sample", "--model", str(model)]}[command]
    code, err = exit_code([*argv, "--n", str(n), "--out-dir", str(out)])
    assert code == cli.EXIT_USAGE, err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"--n {n} is too large" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["toy", "sample"])
@pytest.mark.parametrize("n", [10**18, 10**20])
def test_n_too_large_for_numpy_is_usage_error(trained_model, tmp_path, command, n):
    # numpy refuses arrays this large before it allocates anything
    oversized_n_exit(trained_model, tmp_path, command, n)


@pytest.mark.parametrize("command", ["toy", "sample"])
def test_n_too_large_for_memory_is_usage_error(trained_model, tmp_path, command, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(toy, "make_toy_set", out_of_memory)
    monkeypatch.setattr(FlowModel, "sample", out_of_memory)
    oversized_n_exit(trained_model, tmp_path, command, 10**11)


def oversized_hidden_exit(prepared, tmp_path, width):
    out = tmp_path / "run"
    code, err = exit_code(train_args(prepared, out, ["--hidden", str(width)]))
    assert code == cli.EXIT_USAGE, err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"hidden widths [{width}] are too large" in err
    assert not out.exists()


def test_hidden_too_large_for_numpy_is_usage_error(prepared, tmp_path):
    # numpy refuses a weight matrix this large before it allocates anything
    oversized_hidden_exit(prepared, tmp_path, 10**30)


def test_hidden_too_large_for_memory_is_usage_error(prepared, tmp_path, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr(DenseNet, "create", out_of_memory)
    oversized_hidden_exit(prepared, tmp_path, 10**12)


def test_layers_too_many_for_memory_is_usage_error(prepared, tmp_path, monkeypatch):
    # the guard sizes every layer before the first net; one built past it fails the test
    def unguarded(*args, **kwargs):
        raise AssertionError("a conditioner was built before the memory guard")

    monkeypatch.setattr(DenseNet, "create", unguarded)
    out = tmp_path / "run"
    layers = 10**11
    code, err = exit_code(train_args(prepared, out, ["--layers", str(layers)]))
    assert code == cli.EXIT_USAGE, err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert re.search(rf"hidden widths \[.*\] are too large for {layers} coupling layers", err)
    assert not out.exists()


def test_prepare_non_utf8_raw_file_exits_3(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(b"time,value\n2013-01-01T00:00:00,1.0\n2013-01-01T01:00:00,\xff\n")
    code, err = exit_code(["prepare", "--input", str(raw), "--out-dir", str(tmp_path / "p")])
    assert code == cli.EXIT_DATA
    assert "utf-8" in err and "Traceback" not in err


def reader_input(tmp_path, reader, line2=None):
    """The argv of a command that reads the file a reader reads, and that file's path.

    The file's line 3 ends in the byte 0xff, which is not UTF-8; line2 replaces its line 2.
    """
    good = str(write_scenarios(tmp_path, GOOD_ROWS, GOOD_META))
    (tmp_path / "bad").mkdir()
    bad = str(write_scenarios(tmp_path / "bad", GOOD_ROWS, GOOD_META))
    raw = write_raw_csv(tmp_path / "raw.csv")
    config = tmp_path / "run.cfg"
    config.write_text("epochs=2\nlayers=2\nbandwidth=0.1\n", encoding="utf-8")
    argv, path = {
        "prepare": (["prepare", "--input", raw], raw),
        "train": (["train", "--data", bad], bad),
        "historical": (["eval", "--historical", bad, "--generated", good], bad),
        "generated": (["eval", "--historical", good, "--generated", bad], bad),
        "meta": (["train", "--data", bad], f"{bad}.meta"),
        "config": (["train", "--data", good, "--config", str(config)], str(config)),
    }[reader]
    lines = Path(path).read_bytes().split(b"\n")
    if line2 is not None:
        lines[1] = line2.encode()
    lines[2] += b"\xff"
    Path(path).write_bytes(b"\n".join(lines))
    return [*argv, "--out-dir", str(tmp_path / "out")], path


@pytest.mark.parametrize("reader", ["prepare", "train", "historical", "generated", "meta",
                                    "config"])
def test_non_utf8_byte_names_its_file_and_line(tmp_path, reader):
    argv, path = reader_input(tmp_path, reader)
    code, err = exit_code(argv)
    assert code == cli.EXIT_DATA
    assert err == f"error: {path}: line 3: not utf-8 (byte 0xff)\n"


@pytest.mark.parametrize("reader, line2, exit_, message", [
    ("prepare", "2013-01-01T00:00:00,x", cli.EXIT_DATA, "malformed value 'x'"),
    ("train", "0.5,x,0.5,0.5", cli.EXIT_DATA, "could not convert string to float: 'x'"),
    ("meta", "interval_minutes=x", cli.EXIT_DATA, "malformed interval_minutes 'x'"),
    ("config", "bogus=1", cli.EXIT_USAGE, "unknown key in 'bogus=1'"),
], ids=["prepare", "train", "meta", "config"])
def test_fault_before_a_non_utf8_byte_is_reported_first(tmp_path, reader, line2, exit_,
                                                        message):
    # text I/O decodes line 3 before the reader parses line 2
    argv, path = reader_input(tmp_path, reader, line2)
    code, err = exit_code(argv)
    assert code == exit_
    assert err == f"error: {path}: line 2: {message}\n"


def test_prepare_repeated_local_hour_exits_3_naming_the_line(tmp_path):
    # naive local stamps repeat an hour at the autumn daylight-saving switch
    raw = tmp_path / "raw.csv"
    stamps = ["02:00", "02:15", "02:30", "02:45", "02:00"]
    raw.write_text("time,value\n" + "".join(f"2013-10-27T{t}:00,1.0\n" for t in stamps),
                   encoding="utf-8")
    code, err = exit_code(["prepare", "--input", str(raw), "--out-dir", str(tmp_path / "p")])
    assert code == cli.EXIT_DATA
    assert err == (f"error: {raw}: line 6: timestamps not increasing: "
                   "2013-10-27T02:00:00 after 2013-10-27T02:45:00\n")


def test_prepare_skips_a_byte_order_mark(prepared, tmp_path):
    # Excel's "CSV UTF-8" export starts the file with one
    raw = tmp_path / "bom.csv"
    raw.write_text("\ufeff" + "\n".join(raw_csv_lines()) + "\n", encoding="utf-8")
    code, err = exit_code(["prepare", "--input", str(raw), "--period-length", "24",
                           "--out-dir", str(tmp_path / "p"), "--no-timestamp"])
    assert code == 0, err
    assert (tmp_path / "p" / "scenarios.csv").read_bytes() == prepared.read_bytes()


@pytest.mark.parametrize("lines", [
    ["time,value", "2013-01-01T00:00:00,1.0", "2013-01-01T01:00:00,x"],
    ["time,value", "2013-01-01T00:00:00,1.0"],
])
def test_prepare_capacity_factor_needs_column_whatever_the_file(tmp_path, lines):
    # the flag is checked before the file is read, so a malformed file or one
    # with no complete day does not turn the usage error into a data error
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = exit_code(["prepare", "--input", str(raw), "--scaling", "capacity_factor",
                           "--out-dir", str(tmp_path / "p")])
    assert code == cli.EXIT_USAGE
    assert "capacity_factor scaling requires --capacity-col" in err and "Traceback" not in err


def eval_exit_without_warnings(prepared, out, *flags, generated=None):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = exit_code(["eval", "--historical", str(prepared), "--generated",
                               str(generated or prepared), *flags, "--out-dir", str(out)])
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err


@pytest.mark.parametrize("bandwidth, code", [("4e307", cli.EXIT_NUMERIC),
                                             ("1e308", cli.EXIT_NUMERIC), ("2e307", 0)])
def test_eval_huge_bandwidth_overflowing_the_grid_is_numeric_error(prepared, tmp_path,
                                                                   bandwidth, code):
    got, err = eval_exit_without_warnings(prepared, tmp_path / "r", f"--bandwidth={bandwidth}")
    assert got == code, err
    if code:
        assert err == (f"error: bandwidth {float(bandwidth)!r} is too large: "
                       "the KDE grid overflows float64\n")
        assert not (tmp_path / "r").exists()


def test_eval_overflowing_spread_blames_the_data_not_a_bandwidth(tmp_path):
    # no --bandwidth: Silverman's rule meets a pooled std and IQR that overflow
    rows = 1e308 * np.random.default_rng(5).uniform(-1.0, 1.0, (10, 4))
    path = write_scenarios(tmp_path, [",".join(map(repr, row)) for row in rows.tolist()],
                           GOOD_META)
    code, err = eval_exit_without_warnings(path, tmp_path / "r")
    assert code == cli.EXIT_NUMERIC, err
    assert err == "error: the spread of the values overflows float64: rescale the data\n"
    assert not (tmp_path / "r").exists()


def test_eval_overflowing_span_names_the_span_not_the_bandwidth(tmp_path):
    # the historical set alone sets a small bandwidth; the pooled span overflows
    rows = np.random.default_rng(6).uniform(size=(10, 4))
    hist = write_scenarios(tmp_path, [",".join(map(repr, row)) for row in rows.tolist()],
                           GOOD_META)
    rows[2, 1], rows[7, 3] = -1.7e308, 1.7e308
    (tmp_path / "gen").mkdir()
    gen = write_scenarios(tmp_path / "gen", [",".join(map(repr, row)) for row in rows.tolist()],
                          GOOD_META)
    code, err = eval_exit_without_warnings(hist, tmp_path / "r", generated=gen)
    assert code == cli.EXIT_NUMERIC, err
    assert err == ("error: the values span [-1.7e+308, 1.7e+308], whose width overflows "
                   "float64: rescale the data\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("bandwidth", ["0", "-1", "nan", "inf"])
def test_eval_rejects_bad_bandwidth(prepared, tmp_path, bandwidth):
    code, err = eval_exit_without_warnings(prepared, tmp_path / "r", f"--bandwidth={bandwidth}")
    assert code == cli.EXIT_USAGE
    assert "bandwidth must be finite and positive" in err
    assert not (tmp_path / "r").exists()


def test_eval_tiny_bandwidth_runs_quietly(prepared, tmp_path):
    code, err = eval_exit_without_warnings(prepared, tmp_path / "r", "--bandwidth=1e-300")
    assert code == 0, err


def test_eval_overflowing_density_is_numeric_error(prepared, tmp_path):
    code, err = eval_exit_without_warnings(prepared, tmp_path / "r", "--bandwidth=1e-320")
    assert code == cli.EXIT_NUMERIC, err
    assert err.count("error:") == 1 and "bandwidth 1e-320 is too small" in err
    assert not (tmp_path / "r").exists()


def test_eval_winter_pv_needs_no_bandwidth(tmp_path):
    # sun in 20 of 96 steps: 79% exact zeros, so the pooled IQR is 0
    meta = ["period_length=96", "interval_minutes=15", "scaling=none"]
    sets = []
    for seed in (0, 1):
        rows = np.zeros((200, 96))
        rows[:, 38:58] = np.random.default_rng(seed).uniform(0.0, 0.4, (200, 20))
        (tmp_path / f"set{seed}").mkdir()
        sets.append(write_scenarios(tmp_path / f"set{seed}",
                                    [",".join(map(repr, row)) for row in rows.tolist()], meta))
    code, err = exit_code(["eval", "--historical", str(sets[0]), "--generated", str(sets[1]),
                           "--out-dir", str(tmp_path / "r"), "--no-timestamp"])
    assert code == 0, err
    flat = write_scenarios(tmp_path, ["0.0,0.0,0.0,0.0"] * 8, GOOD_META)
    code, err = exit_code(["eval", "--historical", str(flat), "--generated", str(flat),
                           "--out-dir", str(tmp_path / "r2")])
    assert code == cli.EXIT_DATA
    assert "zero spread" in err and "Traceback" not in err


def test_eval_interval_mismatch_is_usage_error(tmp_path):
    (tmp_path / "gen").mkdir()
    hist = write_scenarios(tmp_path, GOOD_ROWS, GOOD_META)
    gen = write_scenarios(tmp_path / "gen", GOOD_ROWS,
                          ["period_length=4", "interval_minutes=60", "scaling=none"])
    code, err = exit_code(["eval", "--historical", str(hist), "--generated", str(gen),
                           "--out-dir", str(tmp_path / "r")])
    assert code == cli.EXIT_USAGE
    assert "equal interval_minutes, got 360 and 60" in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("hist_meta, gen_meta, message", [
    (GOOD_META, GOOD_META[:2] + ["scaling=minmax", "min=0.0", "max=2.0"],
     "scaling, got 'none' and 'minmax'"),
    (GOOD_META, GOOD_META[:2] + ["scaling=capacity_factor"],
     "scaling, got 'none' and 'capacity_factor'"),
    (GOOD_META, GOOD_META[:2] + ["scaling=none", "min=0.0", "max=2.0"],
     "scale_min, got None and 0.0"),
    (GOOD_META, ["period_length=4", "interval_minutes=60", "scaling=none"],
     "interval_minutes, got 360 and 60"),
    (GOOD_META + ["min=0.0", "max=2.0"], GOOD_META + ["min=0.0", "max=3.0"],
     "scale_max, got 2.0 and 3.0"),
], ids=["minmax", "capacity_factor", "bounds", "interval", "scale_max"])
def test_eval_units_mismatch_is_usage_error(tmp_path, hist_meta, gen_meta, message):
    (tmp_path / "gen").mkdir()
    hist = write_scenarios(tmp_path, GOOD_ROWS, hist_meta)
    gen = write_scenarios(tmp_path / "gen", GOOD_ROWS, gen_meta)
    code, err = exit_code(["eval", "--historical", str(hist), "--generated", str(gen),
                           "--out-dir", str(tmp_path / "r")])
    assert code == cli.EXIT_USAGE
    assert err == f"error: sets must have equal {message}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("length", ["0", "-4", "1"])
def test_eval_rejects_segment_length_below_two(prepared, tmp_path, length):
    code, err = exit_code(["eval", "--historical", str(prepared), "--generated", str(prepared),
                           f"--segment-length={length}", "--out-dir", str(tmp_path / "r")])
    assert code == cli.EXIT_USAGE
    assert "segment_length" in err and "Traceback" not in err
    assert not (tmp_path / "r" / "psd.csv").exists()


@pytest.mark.parametrize("flags, code, message", [
    ([], cli.EXIT_DATA, "a Welch PSD needs rows of at least 2 steps, got 1"),
    (["--segment-length", "2"], cli.EXIT_USAGE, "segment_length must lie in [2, 1], got 2"),
])
def test_eval_one_step_rows_blame_the_flag_only_when_given(tmp_path, flags, code, message):
    path = write_scenarios(tmp_path, ["0.1", "0.3", "0.5"],
                           ["period_length=1", "interval_minutes=1440"])
    got, err = exit_code(["eval", "--historical", str(path), "--generated", str(path),
                          *flags, "--out-dir", str(tmp_path / "r")])
    assert got == code
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("rows, meta, match", [
    (["0.1,0.2", "0.3"], ["period_length=2", "interval_minutes=720"], "line 2"),
    (["0.1,0.2", "0.3,x"], ["period_length=2", "interval_minutes=720"], "line 2"),
    (["0.1,0.2", "0.3,0.4"], ["interval_minutes=720"], "period_length"),
    (["0.1,0.2", "0.3,\udcff"], ["period_length=2", "interval_minutes=720"], "utf-8"),
    *[(["0.1,0.2", "0.3,0.4"], ["period_length=2", "interval_minutes=720", "scaling=minmax",
                                f"min={low}", f"max={high}"],
       "meta: minmax scaling needs finite scale_min < scale_max")
      for low, high in [("nan", "inf"), ("3.0", "1.0")]],
])
def test_eval_malformed_scenarios_exit_3(tmp_path, rows, meta, match):
    path = write_scenarios(tmp_path, rows, meta)
    code, err = exit_code(["eval", "--historical", str(path), "--generated", str(path),
                           "--out-dir", str(tmp_path / "r")])
    assert code == cli.EXIT_DATA
    assert match in err and "Traceback" not in err


@pytest.mark.parametrize("rows, meta, message, blamed", [
    (["0.1,0.2,0.3", "0.4,0.5,0.6"], ["period_length=4", "interval_minutes=360"],
     "rows have 3 entries, expected 4", ""),
    (["0.1,0.2,0.3,0.4"], ["period_length=4", "interval_minutes=360"],
     "need at least 2 scenarios, got 1", ""),
    # the sidecar holds the bad value, so it is blamed
    (["0.1,0.2,0.3,0.4", "0.5,0.6,0.7,0.8"], ["period_length=4", "interval_minutes=0"],
     "interval_minutes must lie in [1, 1440], got 0", ".meta: line 2"),
])
@pytest.mark.parametrize("bad", ["historical", "generated"])
def test_eval_names_the_file_whose_set_is_invalid(tmp_path, rows, meta, message, blamed, bad):
    files = {"historical": tmp_path / "historical", "generated": tmp_path / "generated"}
    for name, directory in files.items():
        directory.mkdir()
        files[name] = write_scenarios(directory, *((rows, meta) if name == bad
                                                   else (GOOD_ROWS, GOOD_META)))
    code, err = exit_code(["eval", "--historical", str(files["historical"]), "--generated",
                           str(files["generated"]), "--out-dir", str(tmp_path / "r")])
    assert code == cli.EXIT_DATA
    assert f"{files[bad]}{blamed}: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("flags, length", [([], 12), (["--segment-length=6"], 6)])
def test_eval_summary_names_the_segment_length_used(prepared, tmp_path, flags, length):
    assert run(["eval", "--historical", str(prepared), "--generated", str(prepared), *flags,
                "--out-dir", str(tmp_path / "r"), "--no-timestamp"]) == 0
    summary = (tmp_path / "r" / "summary.txt").read_text().splitlines()
    assert f"welch_segment_length: {length}" in summary


# per-column variances of about 1e600: float64 overflows in every stage's spread
OVERFLOWING_ROWS = [",".join([repr(1e300 if i % 2 else -1e300)] * 4) for i in range(10)]


@pytest.mark.parametrize("command", [
    ["train", "--mode", "fsnf", "--epochs", "2"],
    ["train", "--mode", "pcf", "--epochs", "2"],
    ["eval"],
])
def test_overflowing_variance_is_numeric_error_without_warnings(tmp_path, command):
    path = str(write_scenarios(tmp_path, OVERFLOWING_ROWS, GOOD_META))
    inputs = (["--data", path] if command[0] == "train"
              else ["--historical", path, "--generated", path])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = exit_code([*command, *inputs, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERIC, err
    assert "overflows float64: rescale the data" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# malformed-input fuzzing ------------------------------------------------


CONFIG_KEYS = sorted({a.dest for p in cli.build_parser()._subparsers._group_actions[0]
                      .choices.values() for a in p._actions})

TEXT = st.text(alphabet="0123456789abcdefinxyz+-.e_ =,#", max_size=8)
CELL = st.one_of(st.floats().map(repr), TEXT)
ROW = st.lists(CELL, max_size=6).map(",".join)
META_LINE = st.one_of(
    TEXT,
    st.tuples(st.sampled_from(["period_length", "interval_minutes", "scaling", "min", "max"]),
              st.one_of(TEXT, st.integers(-5, 2000).map(str), st.floats().map(repr)))
    .map("=".join),
)
CONFIG_LINE = st.one_of(
    TEXT,
    st.tuples(st.one_of(st.sampled_from(CONFIG_KEYS), TEXT),
              st.one_of(TEXT, st.integers(-5, 10).map(str), st.floats().map(repr)))
    .map("=".join),
)


def eval_exit(rows=GOOD_ROWS, meta=GOOD_META, config=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenarios(tmp, rows, meta)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(config) + "\n", encoding="utf-8")
        code, err = exit_code(["eval", "--historical", str(path), "--generated", str(path),
                               "--config", str(cfg), "--out-dir", str(Path(tmp) / "r"),
                               "--no-timestamp"])
    assert code in (0, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC), err
    assert "Traceback" not in err
    return code


def test_fuzz_baseline_inputs_evaluate_cleanly():
    # the fuzz tests below each break one part of these inputs
    assert eval_exit(config=["bandwidth=0.1", "epochs=3"]) == 0


@settings(max_examples=50, deadline=None)
@given(row=ROW, at=st.integers(0, len(GOOD_ROWS)))
def test_fuzz_malformed_scenario_row(row, at):
    eval_exit(rows=GOOD_ROWS[:at] + [row] + GOOD_ROWS[at:])


@settings(max_examples=50, deadline=None)
@given(line=META_LINE, drop=st.sampled_from([None, 0, 1, 2]))
def test_fuzz_malformed_meta_line(line, drop):
    meta = [m for i, m in enumerate(GOOD_META) if i != drop]
    eval_exit(meta=meta + [line])


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(CONFIG_LINE, min_size=1, max_size=3))
def test_fuzz_malformed_config_lines(lines):
    eval_exit(config=lines)


TRAIN_MODES = st.sampled_from(["pcf", "fsnf"])


def train_exit(rows=GOOD_ROWS, meta=GOOD_META, mode="pcf", config=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenarios(tmp, rows, meta)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(config) + "\n", encoding="utf-8")
        code, err = exit_code(["train", "--data", str(path), "--mode", mode, "--epochs", "2",
                               "--val-fraction", "0.25", "--config", str(cfg),
                               "--out-dir", str(Path(tmp) / "t"), "--no-timestamp"])
    assert code in (0, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC), err
    assert "Traceback" not in err
    return code


@pytest.mark.parametrize("mode", ["pcf", "fsnf"])
def test_fuzz_baseline_inputs_train_cleanly(mode):
    assert train_exit(mode=mode) == 0


@settings(max_examples=50, deadline=None)
@given(row=ROW, at=st.integers(0, len(GOOD_ROWS)), mode=TRAIN_MODES)
def test_fuzz_train_malformed_scenario_row(row, at, mode):
    train_exit(rows=GOOD_ROWS[:at] + [row] + GOOD_ROWS[at:], mode=mode)


@settings(max_examples=50, deadline=None)
@given(line=META_LINE, drop=st.sampled_from([None, 0, 1, 2]), mode=TRAIN_MODES)
def test_fuzz_train_malformed_meta_line(line, drop, mode):
    meta = [m for i, m in enumerate(GOOD_META) if i != drop]
    train_exit(meta=meta + [line], mode=mode)


# values of at most three characters keep a fuzzed layer count or width
# below 1000; the command line's --n and --epochs win over the file's
SHORT_TEXT = st.text(alphabet="0123456789abcdefinxyz+-.e_ =,#", max_size=3)
RUN_CONFIG_LINE = st.one_of(
    TEXT,
    st.tuples(st.one_of(st.sampled_from(CONFIG_KEYS), TEXT),
              st.one_of(SHORT_TEXT, st.integers(-5, 10).map(str), st.floats().map(repr)))
    .map("=".join),
)


def test_fuzz_baseline_config_trains_cleanly():
    assert train_exit(config=["layers=2", "hidden=3", "patience=1", "bandwidth=0.1"]) == 0


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(RUN_CONFIG_LINE, min_size=1, max_size=3), mode=TRAIN_MODES)
def test_fuzz_train_malformed_config_lines(lines, mode):
    train_exit(mode=mode, config=lines)


def toy_exit(flags=(), config=()):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(config) + "\n", encoding="utf-8")
        code, err = exit_code(["toy", "--n", "40", "--epochs", "2", *flags,
                               "--config", str(cfg), "--out-dir", str(Path(tmp) / "toy"),
                               "--no-timestamp"])
    assert code in (0, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC), err
    assert "Traceback" not in err
    return code


# sizes stay tiny; free text goes only to flags that cannot make a run large
TOY_FLAG = st.one_of(
    st.tuples(st.sampled_from(["--n", "--epochs", "--layers", "--batch-size", "--patience",
                               "--seed"]), st.integers(-3, 12).map(str)),
    st.tuples(st.sampled_from(["--learning-rate", "--cev", "--val-fraction"]),
              st.floats().map(repr)),
    st.tuples(st.sampled_from(["--shape", "--mode"]),
              st.sampled_from(["curve1d", "kite2d", "pcf", "fsnf"])),
    st.tuples(st.sampled_from(["--learning-rate", "--cev", "--val-fraction", "--shape",
                               "--mode", "--seed"]), TEXT),
).map("=".join)


@pytest.mark.parametrize("shape", ["curve1d", "kite2d"])
@pytest.mark.parametrize("mode", ["pcf", "fsnf"])
def test_fuzz_baseline_toy_runs_cleanly(shape, mode):
    assert toy_exit([f"--shape={shape}", f"--mode={mode}"], ["layers=3", "bandwidth=0.1"]) == 0


@settings(max_examples=50, deadline=None)
@given(flags=st.lists(TOY_FLAG, min_size=1, max_size=4))
def test_fuzz_toy_flags(flags):
    toy_exit(flags)


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(RUN_CONFIG_LINE, min_size=1, max_size=3),
       mode=st.sampled_from(["--mode=pcf", "--mode=fsnf"]))
def test_fuzz_toy_malformed_config_lines(lines, mode):
    toy_exit([mode], lines)


GOOD_RAW = raw_csv_lines(n_days=4, period_length=4, with_capacity=True)
RAW_TEXT = st.text(alphabet="0123456789-:TZ .+naeiul\"\t,", max_size=24)
RAW_CELL = st.one_of(
    RAW_TEXT,
    st.floats().map(repr),
    st.sampled_from(["2013-01-02T06:00:00", "2013-01-02 06:00:00", "2013-01-02T06:00:00Z",
                     "2013-01-02T07:00:00+01:00", "20130102T060000", "2013", "today", "NaT",
                     "0000-01-01T00:00:00", "", "NULL", "none", " na "]),
)


def prepare_exit(lines, scaling="capacity_factor"):
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "raw.csv"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = exit_code(["prepare", "--input", str(raw), "--period-length", "4",
                               "--scaling", scaling, "--capacity-col", "cap",
                               "--out-dir", str(Path(tmp) / "p"), "--no-timestamp"])
    assert code in (0, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC), err
    assert "Traceback" not in err
    return code


def test_fuzz_baseline_raw_csv_prepares_cleanly():
    # the fuzz tests below each break one part of this file
    assert prepare_exit(GOOD_RAW) == 0


@settings(max_examples=50, deadline=None)
@given(row=st.lists(RAW_CELL, max_size=5).map(",".join), at=st.integers(1, len(GOOD_RAW)),
       scaling=st.sampled_from(dataio.SCALING_MODES))
def test_fuzz_malformed_raw_row(row, at, scaling):
    prepare_exit(GOOD_RAW[:at] + [row] + GOOD_RAW[at:], scaling)


@settings(max_examples=50, deadline=None)
@given(cell=RAW_CELL, row=st.integers(0, len(GOOD_RAW) - 1), column=st.integers(0, 2))
def test_fuzz_malformed_raw_cell(cell, row, column):
    lines = [line.split(",") for line in GOOD_RAW]
    lines[row][column] = cell
    prepare_exit([",".join(cells) for cells in lines])


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """Bytes of a small trained pcf model: PCA block, two coupling layers."""
    tmp = tmp_path_factory.mktemp("model")
    raw = write_raw_csv(tmp / "raw.csv")
    assert run(["prepare", "--input", raw, "--period-length", "24",
                "--out-dir", str(tmp / "prep"), "--no-timestamp"]) == 0
    assert run(["train", "--data", str(tmp / "prep" / "scenarios.csv"), "--components", "2",
                "--layers", "2", "--hidden", "3", "--epochs", "3",
                "--out-dir", str(tmp / "run"), "--no-timestamp"]) == 0
    return (tmp / "run" / "model.pcf").read_bytes()


def model_fields(model):
    """Offset and struct format of fields of a model file with a PCA block.

    The array fields are each array's first value; the net fields are those
    of the first layer of the first s-net.
    """
    d, m = struct.unpack_from("<II", model, 37)
    at = 45 + 8 * (2 * d + d * m)  # past the mean, variances and components
    (dim,) = struct.unpack_from("<I", model, at + 8)
    layers = at + 12 + 16 * dim  # the layer count, after cev, dim, shift and scale
    rows, cols = struct.unpack_from("<II", model, layers + 17)
    return {
        "flags": (12, "<I"), "interval_minutes": (16, "<I"), "scaling": (20, "<B"),
        "scale_min": (21, "<d"),
        "scale_max": (29, "<d"), "d": (37, "<I"), "m": (41, "<I"),
        "mean": (45, "<d"), "singular": (45 + 8 * d, "<d"), "component": (45 + 16 * d, "<d"),
        "cev": (at, "<d"), "dim": (at + 8, "<I"), "scale": (at + 12 + 8 * dim, "<d"),
        "n_layers": (layers, "<I"), "s_cap": (layers + 5, "<d"), "depth": (layers + 13, "<I"),
        "rows": (layers + 17, "<I"), "cols": (layers + 21, "<I"), "weight": (layers + 25, "<d"),
        "bias": (layers + 25 + 8 * rows * cols, "<d"),
    }


def overwrite(model, **values):
    raw = bytearray(model)
    fields = model_fields(model)
    for name, value in values.items():
        struct.pack_into(fields[name][1], raw, fields[name][0], value)
    return bytes(raw)


def sample_exit(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.pcf"
        path.write_bytes(model)
        code, err = exit_code(["sample", "--model", str(path), "--n", "4",
                               "--out-dir", str(Path(tmp) / "s"), "--no-timestamp"])
    assert code in (0, cli.EXIT_DATA, cli.EXIT_NUMERIC), err
    assert "Traceback" not in err
    return code, err


def test_fuzz_baseline_model_samples_cleanly(trained_model):
    # the fuzz tests below each break this file
    assert sample_exit(trained_model)[0] == 0
    assert sample_exit(overwrite(trained_model, s_cap=5.0, scale=1.0))[0] == 0


@pytest.mark.parametrize("values, match", [
    ({"d": 2**32 - 1, "m": 2**32 - 1}, "truncated"),
    ({"rows": 2**32 - 1, "cols": 2**32 - 1}, "truncated"),
    ({"m": 0}, "inconsistent PcaMap dimensions"),
    ({"scale": 0.0}, "scales must be finite, scales positive"),
    ({"scale": float("nan")}, "scales must be finite, scales positive"),
    ({"s_cap": 0.0}, "s_cap must be finite and positive"),
    *[(bounds, "model.pcf: inconsistent model file: minmax scaling needs finite "
               "scale_min < scale_max")
      for bounds in ({"scale_min": float("nan")}, {"scale_max": float("nan")},
                     {"scale_min": 3.0, "scale_max": 1.0})],
    *[({"interval_minutes": minutes}, "model.pcf: inconsistent model file: interval_minutes "
      f"must lie in [1, 1440], got {minutes}") for minutes in (0, 1441)],
    ({"scaling": 3}, "model.pcf: unknown scaling code 3"),
])
def test_sample_corrupt_model_is_format_error(trained_model, values, match):
    code, err = sample_exit(overwrite(trained_model, **values))
    assert code == cli.EXIT_DATA
    assert match in err


def test_sample_non_chaining_net_is_format_error(trained_model, tmp_path):
    path = tmp_path / "model.pcf"
    path.write_bytes(trained_model)
    model = load_model(path)
    net = model.layers[0].s_net
    net.weights[1] = np.zeros((net.weights[1].shape[0] + 1, net.weights[1].shape[1]))
    save_model(model, path)
    code, err = sample_exit(path.read_bytes())
    assert code == cli.EXIT_DATA
    assert "inconsistent model file: layer 0 output dim does not chain" in err


@pytest.mark.parametrize("name", ["mean", "singular", "component", "cev", "weight", "bias"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_sample_non_finite_model_value_is_format_error(trained_model, name, value):
    code, err = sample_exit(overwrite(trained_model, **{name: value}))
    assert code == cli.EXIT_DATA
    assert "model.pcf: " in err and "non-finite" in err, err


def test_sample_nets_of_different_widths_is_format_error(trained_model, tmp_path):
    path = tmp_path / "model.pcf"
    path.write_bytes(trained_model)
    model = load_model(path)
    layer = model.layers[0]
    widths = tuple(w.shape[1] + 1 for w in layer.t_net.weights[:-1])
    layer.t_net = DenseNet.create(layer.id_dim, layer.dim - layer.id_dim, widths,
                                  np.random.default_rng(0))
    save_model(model, path)
    code, err = sample_exit(path.read_bytes())
    assert code == cli.EXIT_DATA
    assert "inconsistent model file: s_net and t_net must have identical layer shapes" in err


@settings(max_examples=50, deadline=None)
@given(cut=st.integers(0, 10**6))
def test_fuzz_truncated_model(trained_model, cut):
    sample_exit(trained_model[: cut % len(trained_model)])


@settings(max_examples=50, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_fuzz_flipped_model_bytes(trained_model, flips):
    raw = bytearray(trained_model)
    for at, mask in flips:
        raw[at % len(raw)] ^= mask
    sample_exit(bytes(raw))


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(["flags", "interval_minutes", "scale_min", "scale_max", "d", "m",
                             "mean", "singular",
                             "component", "cev", "dim", "scale", "n_layers", "s_cap", "depth",
                             "rows", "cols", "weight", "bias"]),
       data=st.data())
def test_fuzz_overwritten_model_field(trained_model, name, data):
    integer = model_fields(trained_model)[name][1] == "<I"
    value = data.draw(st.integers(0, 2**32 - 1) | st.sampled_from([0, 1, 2, 3]) if integer
                      else st.floats())
    sample_exit(overwrite(trained_model, **{name: value}))


# byte-level fuzzing: each reader gets a valid file with one byte set, inserted or cut at

BYTE_EDIT = st.tuples(st.sampled_from(["set", "insert", "truncate"]), st.integers(0, 10**6),
                      st.sampled_from([0xff, 0x80, 0x00, 0x0d]) | st.integers(0, 255))


def edited(data, edit):
    how, at, byte = edit
    at %= len(data)
    return {"set": data[:at] + bytes([byte]) + data[at + 1:],
            "insert": data[:at] + bytes([byte]) + data[at:], "truncate": data[:at]}[how]


def assert_reader_names(read, path, *files):
    """read(path) succeeds, or raises an OSError or a PcflowError naming one of files."""
    try:
        read(path)
    except PcflowError as exc:
        assert str(exc).startswith(tuple(f"{name}: " for name in files)), exc
    except OSError:
        pass


def assert_exits_cleanly(argv):
    """An exit code of the contract, no traceback, and at most one error line, the last."""
    code, err = exit_code(argv)
    assert code in (0, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC), err
    assert "Traceback" not in err
    lines = err.rstrip("\n").split("\n")
    assert [i for i, line in enumerate(lines) if "error:" in line] in ([], [len(lines) - 1]), err


def edited_scenarios(directory, edit, meta=False):
    """A good scenario CSV and sidecar in directory, with one of the two edited."""
    path = write_scenarios(directory, GOOD_ROWS, GOOD_META)
    target = Path(f"{path}.meta") if meta else path
    target.write_bytes(edited(target.read_bytes(), edit))
    return path


@settings(max_examples=50, deadline=None)
@given(edit=BYTE_EDIT)
@example(edit=("set", 60, 0xff))
def test_fuzz_raw_csv_bytes(edit):
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "raw.csv"
        raw.write_bytes(edited(("\n".join(GOOD_RAW) + "\n").encode(), edit))
        assert_reader_names(lambda p: dataio.load_csv(p, capacity_col="cap"), raw, raw)
        assert_exits_cleanly(["prepare", "--input", str(raw), "--period-length", "4",
                              "--scaling", "capacity_factor", "--capacity-col", "cap",
                              "--out-dir", str(Path(tmp) / "p"), "--no-timestamp"])


@settings(max_examples=50, deadline=None)
@given(edit=BYTE_EDIT)
@example(edit=("set", 40, 0xff))
def test_fuzz_scenario_csv_bytes_in_train(edit):
    with tempfile.TemporaryDirectory() as tmp:
        path = edited_scenarios(tmp, edit)
        assert_reader_names(dataio.load_scenarios, path, path)
        assert_exits_cleanly(["train", "--data", str(path), "--epochs", "2",
                              "--val-fraction", "0.25", "--out-dir", str(Path(tmp) / "t"),
                              "--no-timestamp"])


@pytest.mark.parametrize("side", ["historical", "generated"])
@settings(max_examples=50, deadline=None)
@given(edit=BYTE_EDIT)
@example(edit=("set", 40, 0xff))
def test_fuzz_scenario_csv_bytes_in_eval(side, edit):
    with tempfile.TemporaryDirectory() as tmp:
        good = write_scenarios(tmp, GOOD_ROWS, GOOD_META)
        (Path(tmp) / "bad").mkdir()
        sets = {"historical": good, "generated": good}
        sets[side] = edited_scenarios(Path(tmp) / "bad", edit)
        assert_reader_names(dataio.load_scenarios, sets[side], sets[side])
        assert_exits_cleanly(["eval", "--historical", str(sets["historical"]), "--generated",
                              str(sets["generated"]), "--out-dir", str(Path(tmp) / "r"),
                              "--no-timestamp"])


@settings(max_examples=50, deadline=None)
@given(edit=BYTE_EDIT)
@example(edit=("set", 20, 0xff))
def test_fuzz_meta_bytes(edit):
    with tempfile.TemporaryDirectory() as tmp:
        path = edited_scenarios(tmp, edit, meta=True)
        # a period_length the rows do not have is blamed on the rows
        assert_reader_names(dataio.load_scenarios, path, f"{path}.meta", path)
        assert_exits_cleanly(["eval", "--historical", str(path), "--generated", str(path),
                              "--out-dir", str(Path(tmp) / "r"), "--no-timestamp"])


@settings(max_examples=50, deadline=None)
@given(edit=BYTE_EDIT)
def test_fuzz_model_bytes(trained_model, edit):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.pcf"
        path.write_bytes(edited(trained_model, edit))
        assert_reader_names(load_model, path, path)
        assert_exits_cleanly(["sample", "--model", str(path), "--n", "4",
                              "--out-dir", str(Path(tmp) / "s"), "--no-timestamp"])


@settings(max_examples=50, deadline=None)
@given(edit=BYTE_EDIT)
@example(edit=("set", 10, 0xff))
def test_fuzz_config_bytes(edit):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenarios(tmp, GOOD_ROWS, GOOD_META)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_bytes(edited(b"bandwidth=0.1\nsegment_length=4\nepochs=3\n", edit))
        argv = ["eval", "--historical", str(path), "--generated", str(path),
                "--config", str(cfg), "--out-dir", str(Path(tmp) / "r"), "--no-timestamp"]
        assert_reader_names(lambda p: cli._apply_config_file(cli.build_parser(), argv), cfg, cfg)
        assert_exits_cleanly(argv)
