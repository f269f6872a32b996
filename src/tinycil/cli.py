"""Batch experiment runner: run / compare / ablate / gen-data subcommands.

Every run writes a manifest with the fully resolved config, each step's model
checkpoint and exemplar store, a summary CSV and, last, the step's line of
steps.jsonl, which commits it (compare reads only committed steps). Rerunning
from a manifest reproduces the summary CSV byte for byte. Charts are emitted
as self-contained SVG polyline plots so the CSV stays the authoritative output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from html import escape
from pathlib import Path

from . import __version__
from .binio import atomic_open
from .config import (DEFAULTS, build_model_spec, build_protocol_config,
                     build_train_settings, load_config, materialize)
from .data import generate_synthetic, load_dataset, save_dataset
from .engine import check_protocol_fits_data, run_protocol
from .errors import (ConfigError, DataFormatError, StepWriteFailed,
                     TrainingDiverged)
from .memory import save_store
from .metrics import (average_incremental_accuracy, read_reports_jsonl,
                      write_csv, write_reports_jsonl, write_summary_csv)
from .model import save_checkpoint

OUT_ROOT_ENV = "TINYCIL_OUT_ROOT"

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc} (partial reports preserved)",
              file=sys.stderr)
        return 1
    except StepWriteFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinycil",
        description="Desk-scale class-incremental learning experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one incremental protocol")
    p.add_argument("--config", required=True, help="INI config or manifest JSON")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="override run.seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="merge runs into a table and SVG chart")
    p.add_argument("run_dirs", nargs="+", help="run output directories")
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda args: compare_runs(args.run_dirs, Path(args.out)))

    p = sub.add_parser("ablate", help="expand a config along one axis and run all arms")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True,
                   choices=["stem", "bias_correction", "classifier_lr"])
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gen-data", help="generate a synthetic CILD dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", dest="per_class_train", type=int, required=True)
    for key in ("per_class_test", "image_size", "channels", "difficulty", "seed"):
        default = DEFAULTS["data"][key]
        p.add_argument(f"--{key.replace('_', '-')}", type=type(default), default=default)
    p.add_argument("--out", required=True, help="output .cild path")
    p.set_defaults(func=cmd_gen_data)
    return parser


# ---------------------------------------------------------------------------
# run

def _write_text(path, text: str) -> None:
    with atomic_open(path) as f:
        f.write(text)


def _default_out_dir(config_path: str, seed: int) -> Path:
    root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return root / f"{Path(config_path).stem}-s{seed}-{stamp}"


def _build_dataset(resolved: dict):
    d = resolved["data"]
    if d["source"] == "file":
        return load_dataset(d["path"])
    return generate_synthetic(
        num_classes=d["classes"], per_class_train=d["per_class_train"],
        per_class_test=d["per_class_test"], image_size=d["image_size"],
        channels=d["channels"], difficulty=d["difficulty"], seed=d["seed"])


def execute_run(resolved: dict, out_dir: Path, quiet: bool = False) -> list:
    """Run one resolved config into out_dir, which must be new or empty;
    returns the step reports."""
    if out_dir.is_dir() and any(out_dir.iterdir()):
        raise ConfigError(f"{out_dir} is not empty: a run writes into a new "
                          "or empty directory")
    protocol = build_protocol_config(resolved)
    settings = build_train_settings(resolved)
    dataset = _build_dataset(resolved)
    check_protocol_fits_data(protocol, dataset, settings)
    c, h, w = dataset.images.shape[1:]
    if h != w:
        raise ConfigError(f"dataset images must be square, got {h}x{w}")
    spec = build_model_spec(resolved, image_size=h, channels=c)
    seed = resolved["run"]["seed"]

    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir()
    manifest = {
        "config": resolved,
        "seeds": {"run": seed, "shuffle": protocol.shuffle_seed,
                  "data": resolved["data"]["seed"]},
        "version": __version__,
        "started": datetime.now(timezone.utc).isoformat(),
        "outputs": {"reports": "steps.jsonl", "summary": "summary.csv",
                    "checkpoints": "checkpoints/step_XX.cilm",
                    "exemplars": "exemplars_XX.cilx"},
    }
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2))

    committed = []

    def on_step(report, state, store):
        # steps.jsonl goes last: its line for a step commits the step's files
        reports = committed + [report]
        save_checkpoint(state, ckpt_dir / f"step_{report.step:02d}.cilm")
        save_store(store, out_dir / f"exemplars_{report.step:02d}.cilx")
        write_summary_csv(reports, out_dir / "summary.csv")
        write_reports_jsonl(reports, out_dir / "steps.jsonl")
        committed.append(report)
        if not quiet:
            print(f"step {report.step}: classes={report.n_classes} "
                  f"top1={report.top1:.4f} bias={report.bias_rate:.4f} "
                  f"eta={report.eta:.3f}")

    try:
        run_protocol(protocol, dataset, settings, spec, seed,
                     step_callback=on_step)
    except OSError as exc:
        last = f"step {committed[-1].step}" if committed else "no step"
        raise StepWriteFailed(f"{exc} (steps.jsonl commits {last})") from exc
    finally:
        manifest["finished"] = datetime.now(timezone.utc).isoformat()
        _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2))
    return committed


def cmd_run(args) -> int:
    raw = load_config(args.config)
    if args.seed is not None:
        raw.setdefault("run", {})["seed"] = args.seed
    resolved = materialize(raw)
    out_dir = Path(args.out or resolved["run"]["out"] or _default_out_dir(
        args.config, resolved["run"]["seed"]))
    reports = execute_run(resolved, out_dir)
    avg = average_incremental_accuracy([r.top1 for r in reports])
    print(f"done: {len(reports)} steps, avg incremental accuracy "
          f"{avg:.4f} -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# compare

def _load_run(run_dir: Path) -> dict:
    manifest_path = run_dir / "manifest.json"
    steps_path = run_dir / "steps.jsonl"
    if not manifest_path.exists() or not steps_path.exists():
        raise ConfigError(f"{run_dir}: not a run directory (need manifest.json "
                          "and steps.jsonl)")
    try:
        protocol = json.loads(manifest_path.read_text())["config"]["protocol"]
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"{manifest_path}: not a run manifest ({exc!r})") from None
    reports = read_reports_jsonl(steps_path)
    if not reports:
        raise ConfigError(f"{steps_path}: commits no step")
    return {"name": run_dir.name, "protocol": protocol, "reports": reports}


def compare_runs(run_dirs, out_dir: Path) -> int:
    """`compare`: the runs' top-1 per step, their averages and a chart."""
    runs = [_load_run(Path(d)) for d in run_dirs]
    for run in runs[1:]:
        if run["protocol"] != runs[0]["protocol"]:
            raise ConfigError(
                f"protocol mismatch between {runs[0]['name']} and {run['name']}")
    out_dir.mkdir(parents=True, exist_ok=True)

    # runs may stop early (a diverged run keeps its finished steps): the
    # longest one lists the steps, and missing cells stay empty
    longest = max((r["reports"] for r in runs), key=len)
    rows = [["step", "n_classes"] + [f"top1_{r['name']}" for r in runs]]
    for i, report in enumerate(longest):
        cells = [report.step, report.n_classes]
        for run in runs:
            cells.append(run["reports"][i].top1 if i < len(run["reports"]) else "")
        rows.append(cells)
    write_csv(out_dir / "compare.csv", rows)

    avg_rows = [["run", "avg_inc_acc", "avg_inc_acc_excl_initial"]]
    series = []
    for run in runs:
        accs = [r.top1 for r in run["reports"]]
        avg = average_incremental_accuracy(accs)
        avg_excl = (average_incremental_accuracy(accs[1:])
                    if len(accs) > 1 else avg)
        avg_rows.append([run["name"], avg, avg_excl])
        series.append((f"{run['name']} [{100 * avg:.2f}]",
                       [r.n_classes for r in run["reports"]], accs))
    write_csv(out_dir / "compare_averages.csv", avg_rows)
    write_line_chart_svg(out_dir / "compare.svg", series)
    print(f"compared {len(runs)} runs -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# ablate

AXES = {
    "stem": [("patchify", ("model", "stem", "patchify")),
             ("conv", ("model", "stem", "conv"))],
    "bias_correction": [("on", ("train", "balanced_finetune", True)),
                        ("off", ("train", "balanced_finetune", False))],
    "classifier_lr": [("x1", ("train", "classifier_lr_multiplier", 1.0)),
                      ("x2", ("train", "classifier_lr_multiplier", 2.0)),
                      ("x10", ("train", "classifier_lr_multiplier", 10.0))],
}


def cmd_ablate(args) -> int:
    raw = load_config(args.config)
    base = materialize(raw)
    if args.axis == "stem":
        # token parity is the comparison's precondition
        depth = base["model"]["stem_depth"]
        if base["model"]["patch_size"] != 2 ** depth:
            raise ConfigError(
                f"stem ablation needs model.patch_size == 2^stem_depth for "
                f"token parity, got {base['model']['patch_size']} vs 2^{depth}")
    out_dir = Path(args.out or base["run"]["out"] or _default_out_dir(
        args.config, base["run"]["seed"]) / f"ablate-{args.axis}")

    grid = [["arm", "avg_inc_acc", "final_top1", "final_eta"]]
    run_dirs = []
    for arm_name, (section, key, value) in AXES[args.axis]:
        arm_cfg = json.loads(json.dumps(base))     # deep copy
        arm_cfg[section][key] = value
        # run.out named the ablation's root: a rerun of one arm must not land there
        arm_cfg["run"]["out"] = ""
        arm_dir = out_dir / arm_name
        print(f"[{args.axis}={arm_name}]")
        reports = execute_run(arm_cfg, arm_dir)
        avg = average_incremental_accuracy([r.top1 for r in reports])
        grid.append([arm_name, avg, reports[-1].top1, reports[-1].eta])
        run_dirs.append(str(arm_dir))
    write_csv(out_dir / "ablation.csv", grid)
    compare_runs(run_dirs, out_dir)
    print(f"ablation grid -> {out_dir / 'ablation.csv'}")
    return 0


# ---------------------------------------------------------------------------
# gen-data

def cmd_gen_data(args) -> int:
    ds = _build_dataset({"data": dict(vars(args), source="synthetic")})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(f"wrote {len(ds.labels)} images, {ds.num_classes} classes -> {out}")
    return 0


# ---------------------------------------------------------------------------
# SVG chart

def write_line_chart_svg(path, series) -> None:
    """Top-1 accuracy against classes seen, one polyline per
    `(label, xs, ys)` series; byte-stable except for the timestamp comment.

    Labels are XML-escaped, so any run name gives a well-formed file.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 60, 160, 20, 45
    plot_w, plot_h = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    x_min, x_max = min(xs_all), max(xs_all)
    x_span = max(x_max - x_min, 1)

    def px(x):
        return ml + plot_w * (x - x_min) / x_span

    def py(y):
        return mt + plot_h * (1.0 - y)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f"<!-- generated {datetime.now(timezone.utc).isoformat()} -->",
             f'<rect width="{width}" height="{height}" fill="white"/>']
    # axes
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" '
                 f'y2="{mt + plot_h}" stroke="black"/>')
    for i in range(6):
        y = i / 5
        parts.append(f'<line x1="{ml - 4}" y1="{py(y):.1f}" x2="{ml}" '
                     f'y2="{py(y):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py(y) + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{y:.1f}</text>')
    for x in sorted(set(xs_all)):
        parts.append(f'<line x1="{px(x):.1f}" y1="{mt + plot_h}" '
                     f'x2="{px(x):.1f}" y2="{mt + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{px(x):.1f}" y="{mt + plot_h + 16}" '
                     f'font-size="11" text-anchor="middle">{x}</text>')
    parts.append(f'<text x="{ml + plot_w / 2:.1f}" y="{height - 8}" '
                 'font-size="12" text-anchor="middle">classes seen</text>')
    parts.append(f'<text x="14" y="{mt + plot_h / 2:.1f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 14 '
                 f'{mt + plot_h / 2:.1f})">top-1 accuracy</text>')
    # series
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" '
                         f'fill="{color}"/>')
        ly = mt + 16 + 18 * i
        parts.append(f'<line x1="{ml + plot_w + 10}" y1="{ly - 4}" '
                     f'x2="{ml + plot_w + 30}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{ml + plot_w + 35}" y="{ly}" font-size="11">'
                     f"{escape(label, quote=False)}</text>")
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


if __name__ == "__main__":
    sys.exit(main())
