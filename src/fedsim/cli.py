"""Command-line experiment runner.

    fedsim run --config experiment.json [--out runs/exp]
    fedsim run --preset blobs-powerlaw-noniid [--out runs/grid]
    fedsim compare runs/a/metrics.csv runs/b/metrics.csv [--at 10 --at 25]
    fedsim presets

Each run writes ``metrics.csv`` (one row per commit, byte-stable across
replays), ``manifest.json`` (the resolved config plus data histograms; enough
to reproduce the run exactly) and ``summary.json`` (accuracy cutoffs and
communication counters). A config with a ``schemes`` list runs one cell per
scheme and adds a ``comparison.csv``.

Exit codes: 0 success, 2 configuration error, 3 runtime/degenerate federation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    get_preset,
    parse_config,
    preset_names,
)
from .controller import DegenerateFederationError
from .data import Dataset
from .simulator import MetricsLog, SimulationResult, run_simulation_detailed

# Re-seeds every run of ``fedsim run``, overriding the config's seed.
SEED_ENV_VAR = "FEDSIM_SEED"


def _dataset_fingerprint(test: Dataset) -> str:
    digest = hashlib.sha256(test.features)
    digest.update(test.labels)
    return digest.hexdigest()


def summarize(log: MetricsLog, summary_times, summary_rounds) -> dict:
    """Accuracy cutoffs and final counters, derivable from the CSV alone."""
    final = log.rows[-1]
    acc_at_time = {}
    for t in summary_times:
        row = log.last_at_or_before_time(t)
        acc_at_time[repr(float(t))] = row.test_top1 if row is not None else None
    acc_at_rounds = {}
    for r in summary_rounds:
        row = log.last_at_or_before_version(r)
        acc_at_rounds[str(int(r))] = row.test_top1 if row is not None else None
    return {
        "scheme": final.scheme,
        "final_top1": final.test_top1,
        "versions": final.version,
        "update_requests": final.update_requests_cum,
        "models_exchanged": final.models_exchanged_cum,
        "acc_at_time": acc_at_time,
        "acc_at_rounds": acc_at_rounds,
    }


def compare_logs(named_logs: list[tuple[str, MetricsLog]], at_times) -> list[dict]:
    """One comparison row per run: accuracy cutoffs and exchange counters."""
    if not at_times:
        horizon = min(log.rows[-1].virtual_time for _, log in named_logs)
        at_times = [horizon]
    rows = []
    for name, log in named_logs:
        final = log.rows[-1]
        requests = final.update_requests_cum
        exchanged = final.models_exchanged_cum
        row = {
            "run": name,
            "scheme": final.scheme,
            "final_top1": final.test_top1,
            "update_requests": requests,
            "models_exchanged": exchanged,
            "dvw_eval_models": exchanged - 2 * requests,
        }
        for t in at_times:
            at = log.last_at_or_before_time(t)
            row[f"acc@{t:g}s"] = at.test_top1 if at is not None else None
        rows.append(row)
    return rows


def _comparison_csv(rows: list[dict]) -> str:
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _format_table(rows: list[dict]) -> str:
    columns = list(rows[0].keys())
    cells = [[("" if r[c] is None else f"{r[c]:.4f}" if isinstance(r[c], float) else str(r[c])) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for row in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(out)


def manifest(cfg: ExperimentConfig, result: SimulationResult) -> dict:
    """The deterministic fields of a run's ``manifest.json``: all but its
    wall-clock seconds."""
    bank = result.bank
    train = bank.split.train
    return {
        "package_version": __version__,
        "config": cfg.to_dict(),
        "test_fingerprint": _dataset_fingerprint(bank.split.test),
        "initial_test_top1": result.log.rows[0].test_top1,
        "sizes": sorted((bank.train_n + bank.val_n).tolist(), reverse=True),
        "per_learner": [
            {
                "id": state.id,
                "group": cfg.speed_profiles[state.id].group,
                "train_size": n,
                "validation_size": v,
                "class_histogram": np.bincount(
                    train.labels[a : a + n], minlength=train.num_classes
                ).tolist(),
            }
            for state, a, n, v in zip(
                bank.states, bank.train_start.tolist(), bank.train_n.tolist(), bank.val_n.tolist()
            )
        ],
        "virtual_duration": result.virtual_duration,
    }


def run_single(cfg: ExperimentConfig, out_dir: Path) -> tuple[MetricsLog, dict]:
    """Execute one configuration cell and persist its artifacts; a run that
    fails leaves no directory behind."""
    wall_start = time.perf_counter()
    result = run_simulation_detailed(cfg)
    wall = time.perf_counter() - wall_start

    out_dir.mkdir(parents=True, exist_ok=True)
    result.log.write_csv(out_dir / "metrics.csv")
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(dict(manifest(cfg, result), wall_duration_seconds=wall), f, indent=2)
        f.write("\n")

    summary = summarize(result.log, cfg.summary_times, cfg.summary_rounds)
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    return result.log, summary


def cmd_run(args: argparse.Namespace) -> int:
    if bool(args.config) == bool(args.preset):
        print("run: give exactly one of --config or --preset", file=sys.stderr)
        return 2
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = config_from_dict(get_preset(args.preset))
    if os.environ.get(SEED_ENV_VAR):
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: not an integer") from exc
        cfg = config_from_dict(dict(cfg.to_dict(), seed=seed))
    out_root = Path(args.out) if args.out else Path("runs") / cfg.name

    if cfg.schemes:
        named_logs = []
        for scheme in cfg.schemes:
            cell = cfg.with_scheme(scheme)
            log, summary = run_single(cell, out_root / scheme)
            named_logs.append((scheme, log))
            print(f"[{cfg.name}/{scheme}] final_top1={summary['final_top1']:.4f} "
                  f"requests={summary['update_requests']}")
        rows = compare_logs(named_logs, list(cfg.summary_times))
        (out_root / "comparison.csv").write_text(_comparison_csv(rows))
        print(_format_table(rows))
    else:
        log, summary = run_single(cfg, out_root)
        print(json.dumps(summary, indent=2))
    return 0


def _run_names(paths: list[Path]) -> list[str]:
    """Each run's directory name; runs whose names collide are named by the
    shortest trailing part of their directory path that no other run shares."""
    names = [p.parent.name or p.stem for p in paths]
    dirs = [p.absolute().parent.parts for p in paths]
    out = []
    for i, (name, parts) in enumerate(zip(names, dirs)):
        others = [d for j, (n, d) in enumerate(zip(names, dirs)) if n == name and j != i]
        k = 1
        while others and k < len(parts) and any(d[-k:] == parts[-k:] for d in others):
            k += 1
        out.append(Path(*parts[-k:]).as_posix() if others else name)
    return out


def cmd_compare(args: argparse.Namespace) -> int:
    named_logs = []
    fingerprints = set()  # one per run: runs in different directories may share a name
    paths = [Path(path) for path in args.csv]
    for name, p in zip(_run_names(paths), paths):
        log = MetricsLog.from_csv(p)
        named_logs.append((name, log))
        manifest_path = p.parent / "manifest.json"
        if manifest_path.exists():
            with open(manifest_path) as f:
                fingerprints.add(json.load(f).get("test_fingerprint"))
    if len({fp for fp in fingerprints if fp}) > 1:
        print("compare: runs use different test sets", file=sys.stderr)
        return 3
    rows = compare_logs(named_logs, args.at or [])
    print(_format_table(rows))
    if args.out:
        Path(args.out).write_text(_comparison_csv(rows))
    return 0


def cmd_presets(_args: argparse.Namespace) -> int:
    for name in preset_names():
        cfg = config_from_dict(get_preset(name))
        print(f"{name:28s} scheme={','.join(cfg.schemes or (cfg.scheme,))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment or a scheme grid")
    p_run.add_argument("--config", help="path to a JSON experiment config")
    p_run.add_argument("--preset", help="name of a shipped preset")
    p_run.add_argument("--out", help="output directory (default runs/<name>)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare metrics CSVs from prior runs")
    p_cmp.add_argument("csv", nargs="+", help="metrics.csv paths")
    p_cmp.add_argument("--at", type=float, action="append",
                       help="virtual-time cutoff for Acc@T (repeatable)")
    p_cmp.add_argument("--out", help="write the comparison table as CSV")
    p_cmp.set_defaults(func=cmd_compare)

    p_pre = sub.add_parser("presets", help="list shipped experiment presets")
    p_pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateFederationError as exc:
        print(f"degenerate federation: {exc}", file=sys.stderr)
        return 3
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
