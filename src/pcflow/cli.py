"""Command-line interface: prepare -> train -> sample -> eval, plus toys."""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import dataio, evaluate, toy
from .errors import NumericError, PcflowError, UsageError, fitting
from .flow import check_scenario_count, load_model, save_model
from .train import TrainConfig, fit_fsnf, fit_pcf

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _timestamp_comment(args):
    if args.no_timestamp:
        return None
    return f"generated {datetime.now(timezone.utc).isoformat(timespec='seconds')}"


def _rows_of(n, width):
    """Guard a step whose arrays hold --n rows of width floats; too large an n is a usage error."""
    return fitting(f"--n {n} is too large: {n} rows of {width} values do not fit in memory",
                   [(n, width)])


def _train_config(args):
    """The TrainConfig of the training flags, checked with --val-fraction before any read."""
    dataio.check_validation_fraction(args.val_fraction)
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        early_stop_patience=args.patience,
    )


def _fit(args, full, config, cev_target, n_components=None, hidden_dims=None):
    """Split the set, then train the flow that --mode names."""
    train_set, val_set = dataio.split(full, args.val_fraction, args.seed)
    if args.mode == "pcf":
        return fit_pcf(train_set, val_set, cev_target=cev_target, n_components=n_components,
                       n_layers=args.layers, hidden_dims=hidden_dims, config=config)
    return fit_fsnf(train_set, val_set, n_layers=args.layers, hidden_dims=hidden_dims,
                    config=config)


def cmd_prepare(args):
    if args.scaling == "capacity_factor" and not args.capacity_col:
        raise UsageError("capacity_factor scaling requires --capacity-col")
    dataio.check_period_length(args.period_length)
    series = dataio.load_csv(
        args.input, time_col=args.time_col, value_col=args.value_col,
        capacity_col=args.capacity_col,
    )
    scenario_set = dataio.clean_and_slice(series, args.period_length)
    scenario_set = dataio.scale(scenario_set, args.scaling, capacity=series.capacity)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "scenarios.csv")
    dataio.save_scenarios(scenario_set, out_path, header_comment=_timestamp_comment(args))
    print(f"wrote {scenario_set.n_scenarios} scenarios of length "
          f"{scenario_set.period_length} to {out_path}")
    return 0


def cmd_train(args):
    if args.cev is not None and args.components is not None:
        raise UsageError("--cev and --components are mutually exclusive")
    config = _train_config(args)
    full = dataio.load_scenarios(args.data)
    cev = args.cev if (args.cev is not None or args.components is not None) else 0.99
    model, log = _fit(args, full, config, cev, args.components, args.hidden)

    os.makedirs(args.out_dir, exist_ok=True)
    model_path = os.path.join(args.out_dir, "model.pcf")
    save_model(model, model_path)
    log.write_csv(os.path.join(args.out_dir, "trainlog.csv"),
                  header_comment=_timestamp_comment(args))
    if log.diverged:
        print(f"training diverged at epoch {log.diverged_epoch}; {log.kept}")
        if not args.allow_divergence:
            raise NumericError("training diverged (re-run with --allow-divergence to accept)")
    if log.best_epoch < 0:
        print(f"wrote {model_path} ({log.kept})")
    else:
        print(f"wrote {model_path} (best epoch {log.best_epoch}, "
              f"{log.epochs_completed} epochs)")
    return 0


def cmd_sample(args):
    check_scenario_count(args.n)
    model = load_model(args.model)
    if args.original_units and model.scaling != "minmax":
        raise UsageError("only minmax scaling can be inverted without a capacity series")
    with _rows_of(args.n, model.pca.dim if model.pca is not None else model.dim):
        scenario_set = model.sample(args.n, args.seed + 2)
        if args.original_units:
            scenario_set = dataio.unscale(scenario_set)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, "samples.csv")
    dataio.save_scenarios(scenario_set, out_path, header_comment=_timestamp_comment(args))
    print(f"wrote {args.n} samples to {out_path}")
    return 0


def cmd_eval(args):
    historical = dataio.load_scenarios(args.historical)
    generated = dataio.load_scenarios(args.generated)
    report = evaluate.evaluate_sets(
        historical, generated, bandwidth=args.bandwidth,
        segment_length=args.segment_length, overlap_fraction=args.overlap,
        window=args.window,
    )
    evaluate.write_report(report, args.out_dir, header_comment=_timestamp_comment(args))
    print(f"KS statistic {report.ks_statistic:.4g}, p-value {report.ks_p_value:.4g}; "
          f"report in {args.out_dir}")
    return 0


def cmd_toy(args):
    config = _train_config(args)
    with _rows_of(args.n, 2):  # both toy shapes are planar
        full = toy.make_toy_set(args.shape, args.n, args.seed + 2)
        model, log = _fit(args, full, config, args.cev)
        samples = model.sample(args.n, args.seed + 2)
    os.makedirs(args.out_dir, exist_ok=True)
    comment = _timestamp_comment(args)
    dataio.save_scenarios(samples, os.path.join(args.out_dir, "samples.csv"),
                          header_comment=comment)
    log.write_csv(os.path.join(args.out_dir, "trainlog.csv"), header_comment=comment)

    lines = [f"shape={args.shape}", f"mode={args.mode}",
             f"best_epoch={log.best_epoch_text}", f"diverged={log.diverged}"]
    if args.shape == "curve1d":
        distances = toy.distance_to_curve(samples.data)
        lines.append(f"mean_distance_to_manifold={float(distances.mean())!r}")
        lines.append(f"fraction_within_{toy.ON_CURVE_TOLERANCE}="
                     f"{float(np.mean(distances <= toy.ON_CURVE_TOLERANCE))!r}")
    with dataio.open_output(os.path.join(args.out_dir, "metrics.txt"), comment) as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _add_seed(parser):
    """--seed, for the commands that draw random numbers: train, sample and toy."""
    def seed(text):  # argparse names the function in its "invalid seed value" message
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    parser.add_argument("--seed", type=seed, default=0,
                        help="master seed (>= 0); named streams are derived from it")


def _add_common(parser):
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--config", default=None, help="key=value file overriding flags")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp header line from output files")


def _add_train_flags(parser, epochs, patience):
    parser.add_argument("--epochs", type=int, default=epochs)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--patience", type=int, default=patience)
    parser.add_argument("--val-fraction", type=float, default=0.2)
    parser.add_argument("--layers", type=int, default=5)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcflow",
        description="Scenario generation with PCA-reduced normalizing flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="slice and scale a raw CSV into scenarios")
    p.add_argument("--input", required=True, help="raw time-series CSV")
    p.add_argument("--time-col", default="time")
    p.add_argument("--value-col", default="value")
    p.add_argument("--capacity-col", default=None)
    p.add_argument("--period-length", type=int, default=96)
    p.add_argument("--scaling", choices=dataio.SCALING_MODES, default="minmax")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a flow on a prepared scenario set")
    p.add_argument("--data", required=True, help="prepared scenario CSV")
    p.add_argument("--mode", choices=("pcf", "fsnf"), default="pcf")
    p.add_argument("--cev", type=float, default=None,
                   help="explained-variance target for PCA truncation (pcf mode)")
    p.add_argument("--components", type=int, default=None,
                   help="explicit latent dimensionality (pcf mode)")
    p.add_argument("--hidden", type=int, nargs="*", default=None,
                   help="conditioner hidden widths (default: two layers of the flow dimension)")
    p.add_argument("--allow-divergence", action="store_true",
                   help="exit 0 when training diverges in either mode (flagged in the log)")
    _add_train_flags(p, epochs=1000, patience=50)
    _add_seed(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw scenarios from a trained model")
    p.add_argument("--model", required=True, help="model file from `pcflow train`")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--original-units", action="store_true",
                   help="invert the recorded minmax scaling")
    _add_seed(p)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="compare generated to historical scenarios")
    p.add_argument("--historical", required=True, help="historical scenario CSV")
    p.add_argument("--generated", required=True, help="generated scenario CSV")
    p.add_argument("--bandwidth", type=float, default=None, help="KDE bandwidth (default: Silverman)")
    p.add_argument("--segment-length", type=int, default=None)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--window", default="hann")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("toy", help="manifold-pathology demonstration on synthetic data")
    p.add_argument("--shape", choices=("curve1d", "kite2d"), default="curve1d")
    p.add_argument("--mode", choices=("pcf", "fsnf"), default="pcf")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--cev", type=float, default=0.99)
    _add_train_flags(p, epochs=600, patience=15)
    _add_seed(p)
    _add_common(p)
    p.set_defaults(func=cmd_toy)

    return parser


def _apply_config_file(parser, argv):
    """Insert --config key=value lines as flags ahead of the command line's own.

    argparse checks their values, and later flags win. Keys of other
    subcommands are skipped; keys no subcommand defines are usage errors,
    and so are ``help`` and ``config``, which are not settings.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    commands = parser._subparsers._group_actions[0].choices
    if not known.config or not argv or argv[0] not in commands:
        return argv
    options = {a.dest: a for a in commands[argv[0]]._actions if a.option_strings}
    all_keys = {a.dest for command in commands.values() for a in command._actions}
    all_keys -= {"help", "config"}

    def config_flags(fh):
        flags = []
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = (part.strip() for part in line.partition("="))
            key = key.replace("-", "_")
            if not sep or key not in all_keys:
                raise UsageError(f"line {line_no}: unknown key in {line!r}")
            action = options.get(key)
            if action is None:
                continue
            flag = action.option_strings[-1]
            if action.nargs == 0:  # a switch; argparse rejects a value other than true/false
                flags += {"true": [flag], "false": []}.get(val.lower(), [f"{flag}={val}"])
            elif action.nargs == "*":
                flags += [flag, *val.split()]
            else:
                flags.append(f"{flag}={val}")
        return flags

    with dataio.reading(known.config, config_flags), open(known.config,
                                                          encoding="utf-8-sig") as fh:
        flags = config_flags(fh)
    return [argv[0], *flags, *argv[1:]]


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # the warning filters decide as before; a warning they show is one line
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            argv = _apply_config_file(parser, argv)
            args = parser.parse_args(argv)
            return args.func(args)
        except (PcflowError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if isinstance(exc, UsageError):
                return EXIT_USAGE
            return EXIT_NUMERIC if isinstance(exc, NumericError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
