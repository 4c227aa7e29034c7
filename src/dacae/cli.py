"""Command-line entry points for the experiment pipeline.

Exit codes: 0 success, 1 configuration error, 2 one or more failed folds
(or a diverged training run), 3 I/O or report error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data import IngestionError, generate_synthetic, normalize, save_synthetic
from .experiments import (ExperimentConfig, ReportError, failed_count, holdout_split,
                          load_dataset, report, run_datasize, run_loso, run_sweep,
                          run_table3)
from .model import VARIANTS, save_checkpoint
from .nn import ConfigError, TrainingDiverged
from .training import fit_feature_extractor


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--jobs", type=int, help="worker processes (default 1)")
    parser.add_argument("--out", help="output directory (default ./out)")
    parser.add_argument("--dataset", help="interchange CSV path (default: synthetic data)")
    parser.add_argument("--variant", action="append", metavar="NAME",
                        help=f"model variant, repeatable; one of {', '.join(VARIANTS)}")
    parser.add_argument("--classifier", action="append", metavar="KIND",
                        help="task classifier kind, repeatable")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for flag, key in (("seed", "seed"), ("jobs", "jobs"), ("out", "out"),
                      ("dataset", "dataset")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "variant", None):
        overrides["variants"] = tuple(args.variant)
    if getattr(args, "classifier", None):
        overrides["classifiers"] = tuple(args.classifier)
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    spec = cfg.synthetic if args.seed is None else replace(cfg.synthetic, seed=args.seed)
    dataset, templates, offsets = generate_synthetic(spec)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "synthetic.csv"
    save_synthetic(path, dataset, spec, templates, offsets)
    print(f"wrote {path} ({len(dataset)} samples, {spec.n_subjects} subjects, "
          f"{spec.n_classes} classes) and {path}.factors.json")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if len(cfg.variants) != 1:
        raise ConfigError(f"train fits exactly one variant, got {list(cfg.variants)}; "
                          "pass --variant NAME")
    (variant,) = cfg.variants
    dataset = load_dataset(cfg)
    train_ids, val_ids = holdout_split(dataset, cfg.val_fraction, cfg.seed)
    normed = normalize(dataset, train_ids)
    hyper = cfg.hyper(variant, cfg.seed)
    params, log = fit_feature_extractor(normed.subset(train_ids), hyper,
                                        val=normed.subset(val_ids))
    root = Path(cfg.out) / "train"
    root.mkdir(parents=True, exist_ok=True)
    save_checkpoint(root / "model.npz", params, hyper, normalization=normed.normalization)
    log.to_csv(root / "trainlog.csv")
    last = log.rows[-1]
    print(f"{variant}: trained {len(log.rows)} epochs, final loss {last.total_loss:.6f}, "
          f"val task accuracy {last.val_task_acc:.3f}")
    print(f"wrote {root / 'model.npz'} and {root / 'trainlog.csv'}")
    return 0


def _print_summary(summary) -> None:
    for row in summary:
        print(f"{row.variant:7s} {row.classifier:7s} mean={row.mean:.3f} "
              f"median={row.median:.3f} q1={row.q1:.3f} q3={row.q3:.3f} "
              f"folds={row.folds} failed={row.failed}")


def _cmd_loso(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    results, summary = run_loso(cfg)
    _print_summary(summary)
    print(f"wrote {Path(cfg.out) / 'loso'}")
    return 2 if failed_count(results) else 0


def _cmd_table3(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    results, table = run_table3(cfg)
    for row in table:
        print(f"{row.variant:7s} lambda_a={row.lambda_a:<5g} lambda_n={row.lambda_n:<6g} "
              f"task={row.task_acc:.3f} adversary={row.adversary_acc:.3f} "
              f"nuisance={row.nuisance_acc:.3f} (chance {row.chance:.3f})")
    print(f"wrote {Path(cfg.out) / 'table3'}")
    return 2 if failed_count(results) else 0


def _cmd_datasize(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    curve, by_fraction = run_datasize(cfg)
    for row in curve:
        print(f"fraction={row.fraction:<5g} {row.variant:7s} {row.classifier:7s} "
              f"mean={row.mean_acc:.3f} folds={row.folds} failed={row.failed}")
    print(f"wrote {Path(cfg.out) / 'datasize'}")
    n_failed = sum(failed_count(rs) for rs in by_fraction.values())
    return 2 if n_failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = run_sweep(cfg)
    for row in result.rows:
        print(f"stage {row.stage}: lambda_a={row.lambda_a:<5g} lambda_n={row.lambda_n:<6g} "
              f"val={row.val_task_acc:.3f} adversary={row.adversary_acc:.3f} "
              f"nuisance={row.nuisance_acc:.3f}")
    sel = result.selected
    print(f"selected lambda_a={sel.lambda_a} lambda_n={sel.lambda_n} r_n={sel.r_n:.4f}")
    print(f"wrote {Path(cfg.out) / 'sweep' / 'sweep.csv'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    summary, _ = report(args.results_dir, out_dir=args.out)
    _print_summary(summary)
    out = Path(args.out) if args.out else Path(args.results_dir)
    print(f"wrote {out / 'report_summary.csv'} and {out / 'report_matrix.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacae",
        description="Subject-invariant feature extraction experiments: train "
                    "disentangled adversarial conditional autoencoders and evaluate "
                    "them leave-one-subject-out.")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = (
        ("synth", _cmd_synth, "generate a synthetic dataset CSV with its factor sidecar"),
        ("train", _cmd_train, "fit one feature extractor and save a checkpoint"),
        ("loso", _cmd_loso, "leave-one-subject-out evaluation over variants and classifiers"),
        ("table3", _cmd_table3, "parameter-impact table over the fixed lambda grid"),
        ("datasize", _cmd_datasize, "accuracy versus training-set fraction"),
        ("sweep", _cmd_sweep, "two-stage lambda_N then lambda_A sweep"),
        ("report", _cmd_report, "aggregate result CSVs into summary tables"),
    )
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        if name == "report":
            p.add_argument("results_dir", help="experiment output directory to aggregate")
            p.add_argument("--out", help="directory for report CSVs (default: results_dir)")
        else:
            _add_common(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestionError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 2
    except ReportError as err:
        print(f"report error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
