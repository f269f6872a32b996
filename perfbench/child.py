"""One benchmark run of one workload, in a fresh interpreter.

`run.py` starts this script once per run and reads the JSON it writes to
`--result`. The clock starts before `import tinycil`:

- setup_s: from start to the first call of the workload's entry
  (`run_protocol`, or the first `evaluate` for eval_ckpt);
- run_s: from that call to the end of the workload's work.

`--mode setup` stops at that first call and reports setup_s alone, so
that one invocation can sample set-up more often than it runs the workload.
`--mode prep` builds the workload's inputs instead (untimed).
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


class GcCounter:
    """GC pause time and objects collected, from `gc.callbacks`."""

    def __init__(self):
        self.pause_s = 0.0
        self.collected = 0
        self._t = 0.0
        gc.callbacks.append(self)

    def __call__(self, phase, info):
        if phase == "start":
            self._t = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t
            self.collected += info["collected"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SetupDone(Exception):
    """Raised at the workload's entry in `--mode setup`."""


def _check_import() -> None:
    import tinycil
    where = Path(tinycil.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"imported tinycil from {where}, expected under {SRC}")


def prep(workload, seed: int, work: Path) -> dict:
    """Build the workload's inputs with public APIs; returns their sizes."""
    from tinycil import cli, config, data
    resolved = config.materialize(workload.resolved_raw(seed))
    d = resolved["data"]
    if not workload.eval_data:
        ds = data.generate_synthetic(
            num_classes=d["classes"], per_class_train=d["per_class_train"],
            per_class_test=d["per_class_test"], image_size=d["image_size"],
            channels=d["channels"], difficulty=d["difficulty"], seed=d["seed"])
        return {"records": len(ds.labels), "bytes": ds.images.nbytes,
                "classes": ds.num_classes}
    # same data seed, so the same class prototypes as the training run
    big = data.generate_synthetic(
        num_classes=d["classes"], image_size=d["image_size"],
        channels=d["channels"], difficulty=d["difficulty"], seed=d["seed"],
        **workload.eval_data)
    data.save_dataset(big, work / "eval.cild")
    cli.execute_run(resolved, work / "ckpt_run", quiet=True)
    return {"records": len(big.labels),
            "bytes": (work / "eval.cild").stat().st_size,
            "classes": big.num_classes}


def run_protocol_workload(workload, seed: int, out: Path, marks: dict,
                          setup_only: bool) -> dict:
    from tinycil import cli, config, metrics
    from tracing import patch
    entry = cli.run_protocol

    def marked(*args, **kwargs):
        if "entry" not in marks:
            marks.update(entry=time.perf_counter(), entry_cpu=time.process_time())
        if setup_only:
            raise SetupDone
        return entry(*args, **kwargs)

    patch(entry, marked)
    resolved = config.materialize(workload.resolved_raw(seed))
    reports = cli.execute_run(resolved, out, quiet=True)
    marks.update(end=time.perf_counter(), end_cpu=time.process_time())
    finite = all(math.isfinite(v) for r in reports
                 for v in [r.top1, r.bias_rate, r.eta, *r.loss_trace,
                           *r.finetune_loss_trace])
    return {"top1": reports[-1].top1,
            "avg_inc_acc": metrics.average_incremental_accuracy(
                [r.top1 for r in reports]),
            "bias_rate": reports[-1].bias_rate, "finite": finite,
            "summary_sha256": _sha256(out / "summary.csv")}


def run_eval_workload(workload, seed: int, work: Path, out: Path,
                      marks: dict, setup_only: bool) -> dict:
    import numpy as np
    from tinycil import config, data, engine, memory, metrics, model
    ckpt_run = work / "ckpt_run"
    resolved = config.materialize(config.load_config(ckpt_run / "manifest.json"))
    plan = data.build_protocol(config.build_protocol_config(resolved))
    ds = data.load_dataset(work / "eval.cild")
    states = [model.load_checkpoint(ckpt_run / "checkpoints" / f"step_{t:02d}.cilm")
              for t in range(1, len(plan.steps) + 1)]
    label_map = np.full(ds.num_classes, -1, dtype=np.int64)
    label_map[plan.class_order] = np.arange(len(plan.class_order))

    marks.update(entry=time.perf_counter(), entry_cpu=time.process_time())
    if setup_only:
        raise SetupDone
    reports = []
    seen = [0] + plan.seen_counts
    for t, state in enumerate(states, start=1):
        images, labels = ds.subset("test", plan.class_order[:seen[t]])
        top1, cm = metrics.evaluate(state, images, label_map[labels], seen[t])
        reports.append(metrics.StepReport(
            step=t, n_classes=seen[t], top1=top1, confusion=cm,
            bias_rate=metrics.old_to_new_bias_rate(cm, seen[t - 1]),
            eta=state.temperature))
    exemplars = engine.construct_exemplars(states[-1], ds, plan.class_order,
                                           workload.herd_budget)
    store = memory.ExemplarStore(memory.PerClass(workload.herd_budget))
    store.add_and_trim(exemplars, seen[-1])
    memory.save_store(store, out / "exemplars.cilx")
    loaded = memory.load_store(out / "exemplars.cilx")
    metrics.write_reports_jsonl(reports, out / "steps.jsonl")
    metrics.write_summary_csv(reports, out / "summary.csv")
    marks.update(end=time.perf_counter(), end_cpu=time.process_time())

    roundtrip = (loaded.class_ids() == store.class_ids() and all(
        np.array_equal(loaded.images(c), store.images(c))
        for c in store.class_ids()))
    finite = all(math.isfinite(v) for r in reports
                 for v in (r.top1, r.bias_rate, r.eta))
    return {"top1": reports[-1].top1,
            "avg_inc_acc": metrics.average_incremental_accuracy(
                [r.top1 for r in reports]),
            "bias_rate": reports[-1].bias_rate, "finite": finite,
            "roundtrip": roundtrip,
            "summary_sha256": _sha256(out / "summary.csv")}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["prep", "setup", "run"], required=True)
    p.add_argument("--work", required=True, help="the workload's work directory")
    p.add_argument("--out", help="run output directory (setup and run modes)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--result", required=True, help="where to write the JSON result")
    args = p.parse_args()
    workload = WORKLOADS[args.workload]
    work = Path(args.work)

    gc_counter = GcCounter()
    _check_import()
    imported = time.perf_counter()

    if args.mode == "prep":
        result = prep(workload, args.seed, work)
    else:
        setup_only = args.mode == "setup"
        tracer = None
        if args.trace:
            from tracing import Tracer, install
            tracer = Tracer()
            install(tracer)
        out = Path(args.out)
        out.mkdir(parents=True)
        marks: dict = {}
        try:
            if workload.eval_data:
                result = run_eval_workload(workload, args.seed, work, out, marks,
                                           setup_only)
            else:
                result = run_protocol_workload(workload, args.seed, out, marks,
                                               setup_only)
        except SetupDone:
            result = {}
        result["setup_s"] = marks["entry"] - START
        if not setup_only:
            result.update(
                run_s=marks["end"] - marks["entry"],
                run_cpu_s=marks["end_cpu"] - marks["entry_cpu"],
                import_s=imported - START, gc_pause_s=gc_counter.pause_s,
                gc_collected=gc_counter.collected)
        if tracer is not None:
            from tracing import export, summarize
            summary = summarize(tracer, (marks["entry"], marks["end"]))
            result["layers"] = summary["metrics"]
            result["span_calls"] = summary["calls"]
            export(tracer, work / "spans.jsonl")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
