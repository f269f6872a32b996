"""Spans around tinycil's public functions, patched in from outside the package.

A span is (name, start, end, parent). Each public function of interest is
replaced, in every tinycil module that holds a reference to it, by a wrapper
that opens a span, calls the original and closes the span. Names must be
patched where the caller looks them up: `engine` and `cli` import functions
by name, while `model` calls tensor ops through the module (`T.matmul`).

Tensor ops are split in two halves. The forward half is the wrapped op
itself. The backward half is the closure the op records on the active tape
at index `Tensor.tape_id`; the wrapper swaps that closure for a timed one,
so it shows up as a child of the `tensor.backward` span.

Spans stay in memory; `summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# Ops with their own rows in the per-op table; every other public op of
# tinycil.tensor is folded into `tensor.other`.
TENSOR_OPS = ("matmul", "conv2d", "gelu", "layer_norm", "batch_norm",
              "softmax", "add", "transpose", "index", "l2_normalize", "take",
              "take_along_axis")
_TENSOR_NON_OPS = {"active_tape", "backward"}


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, fn, name, after=None):
        """Wrapper that records a span; `name` may be a function of the call.

        `after(args, kwargs, result)` runs once the span is closed and may
        add to the counters.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def wrap_op(self, fn, op: str, active_tape):
        fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if out.tape_id is not None:
                # the op just recorded its node on the active tape
                node = active_tape()._nodes[out.tape_id]
                node.backward_fn = self.wrap(node.backward_fn, bwd)
            return out
        return wrapper


def patch(original, wrapper) -> None:
    """Rebind every tinycil module attribute that is `original`."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tinycil" or mod_name.startswith("tinycil.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"nothing to patch for {original!r}")


def install(tracer: Tracer) -> None:
    """Patch tracing wrappers into every layer of an imported tinycil."""
    from tinycil import (augment, config, data, engine, memory, metrics, model,
                         optim)
    from tinycil import tensor as T

    c = tracer.counts

    for name, fn in list(vars(T).items()):
        if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                and getattr(fn, "__module__", None) == T.__name__
                and name not in _TENSOR_NON_OPS):
            op = name if name in TENSOR_OPS else "other"
            patch(fn, tracer.wrap_op(fn, op, T.active_tape))
    patch(T.backward, tracer.wrap(T.backward, "tensor.backward"))

    def forward_name(args, kwargs):
        return "model.forward_" + kwargs.get("mode", args[2] if len(args) > 2 else "eval")

    def count_forward(args, kwargs, out):
        c[forward_name(args, kwargs) + "_images"] += out.shape[0]
        if tracer.parent_name() == "engine.finetune":
            c["engine.finetune_fwd_images"] += out.shape[0]

    patch(model.forward_features,
          tracer.wrap(model.forward_features, forward_name, count_forward))
    for fn in (model.conv_stem_forward, model.patchify_forward):
        patch(fn, tracer.wrap(fn, "model.stem"))
    for fn in (model.cosine_logits, model.cosine_scores):
        patch(fn, tracer.wrap(fn, "model.head"))
    patch(model.save_checkpoint,
          tracer.wrap(model.save_checkpoint, "model.checkpoint_save"))
    patch(model.load_checkpoint,
          tracer.wrap(model.load_checkpoint, "model.checkpoint_load"))

    run_protocol = engine.run_protocol

    def traced_run_protocol(*args, **kwargs):
        callback = kwargs.get("step_callback")
        if callback is not None:
            kwargs["step_callback"] = tracer.wrap(callback, "cli.step_artifacts")
        return run_protocol(*args, **kwargs)

    patch(run_protocol, tracer.wrap(traced_run_protocol, "engine.run_protocol"))
    patch(engine.run_stage1, tracer.wrap(engine.run_stage1, "engine.stage1"))

    def count_finetune_store(args, kwargs, out):
        c["engine.finetune_exemplars"] += args[0].store.total_count()

    patch(engine.run_balanced_finetune,
          tracer.wrap(engine.run_balanced_finetune, "engine.finetune",
                      count_finetune_store))
    patch(engine.construct_exemplars,
          tracer.wrap(engine.construct_exemplars, "engine.exemplars"))
    patch(engine.total_loss, tracer.wrap(engine.total_loss, "engine.loss"))

    optim.AdamW.step = tracer.wrap(optim.AdamW.step, "optim.step")
    patch(augment.augment_batch, tracer.wrap(augment.augment_batch, "augment.batch"))

    def count_herding(args, kwargs, out):
        n = len(args[0])
        m = min(args[1] if len(args) > 1 else kwargs["budget"], n)
        c["memory.herding_rows_scanned"] += m * n - m * (m - 1) // 2

    patch(memory.herding_select,
          tracer.wrap(memory.herding_select, "memory.herding", count_herding))

    def count_store_bytes(args, kwargs, out):
        c["memory.store_bytes"] += os.path.getsize(args[1])

    patch(memory.save_store,
          tracer.wrap(memory.save_store, "memory.store_save", count_store_bytes))
    patch(memory.load_store, tracer.wrap(memory.load_store, "memory.store_load"))

    def count_eval(args, kwargs, out):
        c["metrics.eval_images"] += len(args[2])

    patch(metrics.evaluate, tracer.wrap(metrics.evaluate, "metrics.evaluate", count_eval))
    for fn in (metrics.write_reports_jsonl, metrics.write_summary_csv):
        patch(fn, tracer.wrap(fn, "metrics.reports_write"))

    def count_records(args, kwargs, out):
        c["data.records"] += len(out.labels)

    def count_read(args, kwargs, out):
        count_records(args, kwargs, out)
        c["data.bytes_read"] += os.path.getsize(args[0])

    patch(data.generate_synthetic,
          tracer.wrap(data.generate_synthetic, "data.build", count_records))
    patch(data.load_dataset, tracer.wrap(data.load_dataset, "data.build", count_read))
    patch(config.materialize, tracer.wrap(config.materialize, "config.materialize"))


# ---------------------------------------------------------------------------
# span tree -> per-layer metrics

def summarize(tracer: Tracer, window: tuple[float, float]) -> dict:
    """Per-layer metrics from the recorded spans.

    Time per name counts only the outermost span of that name, so a function
    that calls itself through another patched name is not counted twice.
    `window` is the timed (entry, end) interval used for top-level coverage.
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    calls: Counter = Counter()
    total: Counter = Counter()
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += dur[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += dur[i]

    out: dict[str, float] = {}
    for op in TENSOR_OPS + ("other",):
        out[f"tensor.{op}.fwd_s"] = total[f"tensor.{op}.fwd"]
        out[f"tensor.{op}.bwd_s"] = total[f"tensor.{op}.bwd"]
        out[f"tensor.{op}.calls"] = calls[f"tensor.{op}.fwd"]
    out["tensor.backward_s"] = total["tensor.backward"]

    out["model.forward_train_s"] = total["model.forward_train"]
    out["model.forward_eval_s"] = total["model.forward_eval"]
    out["model.forward_train_images"] = tracer.counts["model.forward_train_images"]
    out["model.forward_eval_images"] = tracer.counts["model.forward_eval_images"]
    out["model.stem_s"] = total["model.stem"]
    out["model.head_s"] = total["model.head"]
    out["model.checkpoint_save_s"] = total["model.checkpoint_save"]
    out["model.checkpoint_load_s"] = total["model.checkpoint_load"]

    out["engine.stage1_s"] = total["engine.stage1"]
    out["engine.stage1_self_s"] = sum(dur[i] - child_time[i]
                                      for i, s in enumerate(spans)
                                      if s[0] == "engine.stage1")
    out["engine.loss_s"] = total["engine.loss"]
    out["engine.old_forward_s"] = sum(
        dur[i] for i, s in enumerate(spans)
        if s[0] == "model.forward_eval" and s[3] >= 0
        and spans[s[3]][0] == "engine.stage1")
    out["engine.finetune_s"] = total["engine.finetune"]
    out["engine.exemplars_s"] = total["engine.exemplars"]
    stored = tracer.counts["engine.finetune_exemplars"]
    out["engine.finetune_fwd_per_exemplar"] = (
        tracer.counts["engine.finetune_fwd_images"] / stored if stored else 0.0)

    out["optim.step_s"] = total["optim.step"]
    out["optim.steps"] = calls["optim.step"]
    out["augment.batch_s"] = total["augment.batch"]
    out["augment.batches"] = calls["augment.batch"]

    out["memory.herding_s"] = total["memory.herding"]
    out["memory.herding_rows_scanned"] = tracer.counts["memory.herding_rows_scanned"]
    out["memory.store_save_s"] = total["memory.store_save"]
    out["memory.store_load_s"] = total["memory.store_load"]
    out["memory.store_bytes"] = tracer.counts["memory.store_bytes"]

    out["metrics.evaluate_s"] = total["metrics.evaluate"]
    out["metrics.eval_images"] = tracer.counts["metrics.eval_images"]
    out["metrics.reports_write_s"] = total["metrics.reports_write"]

    out["data.build_s"] = total["data.build"]
    out["data.records"] = tracer.counts["data.records"]
    out["data.bytes_read"] = tracer.counts["data.bytes_read"]
    out["config.materialize_s"] = total["config.materialize"]
    out["cli.step_artifacts_s"] = total["cli.step_artifacts"]

    lo, hi = window
    covered = sum(max(0.0, min(end, hi) - max(start, lo))
                  for _, start, end, parent in spans if parent < 0)
    out["trace.top_coverage"] = covered / (hi - lo) if hi > lo else 0.0
    return {"metrics": out, "calls": dict(calls)}


def export(tracer: Tracer, path) -> None:
    """Write the spans as JSON lines: name, start, end, parent index."""
    with open(path, "w") as f:
        for name, start, end, parent in tracer.spans:
            f.write(json.dumps([name, start, end, parent]) + "\n")
