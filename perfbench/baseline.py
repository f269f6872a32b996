"""Record the benchmark baseline: every workload on ten seeds, then traced.

    python3 perfbench/baseline.py

For each workload in BENCHMARK.json this runs `run.py --trace 0` once per
seed 1-10, for BENCHMARK.json's `run_seconds`, and one `run.py --trace 1` on
seed 1, then writes `perfbench/baseline.json`:
the machine block, the end-to-end medians with their spread across seeds
(interquartile range over median, the figure each BENCHMARK.json bound is
compared with), the traced per-layer table, and the map from each layer
metric to the end-to-end metric and workload it should move. It prints each
spread next to its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))

# layer metric -> the end-to-end metric it should move, and on which workloads
INTERACTIONS = [
    ("tensor.conv2d.*, tensor.batch_norm.*", "run_s",
     "conv_ft (both halves), eval_ckpt (fwd only); 0 calls on patch_steps"),
    ("tensor.<op>.bwd_s", "run_s", "conv_ft, patch_steps; 0 on eval_ckpt"),
    ("tensor.gelu.fwd_s", "run_s",
     "all three; largest share on eval_ckpt"),
    ("tensor.matmul.*, tensor.layer_norm.*, tensor.softmax.*", "run_s",
     "all three; backward on the training workloads only"),
    ("tensor.take.*, tensor.take_along_axis.*", "run_s",
     "patch_steps (margin ranking)"),
    ("tensor.backward_s, tensor.gc_pause_s, tensor.gc_collected",
     "peak_rss_mb, run_s", "conv_ft, patch_steps; not eval_ckpt"),
    ("model.forward_eval_s, model.forward_eval_images", "run_s",
     "eval_ckpt most; patch_steps (old-model forwards)"),
    ("model.forward_train_s, model.stem_s, model.head_s", "run_s",
     "conv_ft, patch_steps"),
    ("model.checkpoint_load_s", "setup_s", "eval_ckpt"),
    ("model.checkpoint_save_s", "run_s", "conv_ft, patch_steps"),
    ("engine.stage1_s, engine.stage1_self_s, engine.loss_s", "run_s",
     "conv_ft, patch_steps"),
    ("engine.old_forward_s", "run_s", "patch_steps most, conv_ft"),
    ("engine.finetune_s, engine.finetune_fwd_per_exemplar", "run_s",
     "conv_ft only; 0 on patch_steps and eval_ckpt"),
    ("engine.exemplars_s", "run_s", "eval_ckpt most"),
    ("optim.step_s, optim.steps, augment.batch_s, augment.batches", "run_s",
     "conv_ft, patch_steps (mixing in conv_ft only); 0 on eval_ckpt"),
    ("memory.herding_s, memory.herding_rows_scanned, memory.store_save_s, "
     "memory.store_load_s, memory.store_bytes", "run_s", "eval_ckpt"),
    ("metrics.evaluate_s, metrics.eval_images, metrics.reports_write_s",
     "run_s", "eval_ckpt"),
    ("data.build_s, data.records, data.bytes_read, config.materialize_s",
     "setup_s", "all; the CILD reader on eval_ckpt"),
    ("cli.step_artifacts_s", "run_s", "patch_steps (five steps), conv_ft"),
    ("process.import_s", "setup_s", "all"),
    ("process.user_s, process.sys_s, process.minor_faults",
     "run_s, peak_rss_mb", "all; page faults mostly on the training workloads"),
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((ROOT / ".bench_out" / workload / "details.json").read_text())
    return {"result": result, "details": details}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    load_before = os.getloadavg()
    out = {"settings": {"seeds": SEEDS, "seconds": seconds}, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(name, SEEDS[0], seconds, 1)
        out.setdefault("machine", runs[0]["details"]["machine"])
        # per seed, the invocation's median (as in its result line)
        e2e = {}
        for metric, stats in runs[0]["details"]["end_to_end"].items():
            values = [r["details"]["end_to_end"][metric]["median"] for r in runs]
            e2e[metric] = {"median": statistics.median(values),
                           "spread": spread(values), "unit": stats["unit"],
                           "per_seed": values}
            if metric in bounds:
                e2e[metric]["bound"] = bounds[metric]
                print(f"{name:<12} {metric:<12} median {e2e[metric]['median']:.6g} "
                      f"spread {e2e[metric]['spread']:.4f} (bound {bounds[metric]}, "
                      f"a third {bounds[metric] / 3:.4f})")
            else:
                print(f"{name:<12} {metric:<12} median {e2e[metric]['median']:.6g} "
                      f"min {min(values):.6g} (not gated)")
        out["workloads"][name] = {
            "inputs": {str(r["details"]["seed"]): r["details"]["inputs"] for r in runs},
            "end_to_end": e2e,
            "runs_per_invocation": [len(r["details"]["records"]) for r in runs],
            "setup_samples_per_invocation": [r["details"]["end_to_end"]["setup_s"]["n"]
                                             for r in runs],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        }
    out["machine"].update(loadavg_before=load_before, loadavg_after=os.getloadavg())
    out["interactions"] = [{"layer": layer, "moves": moves, "workloads": where}
                           for layer, moves, where in INTERACTIONS]
    path = BENCH / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
