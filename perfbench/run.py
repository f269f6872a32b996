"""tinycil benchmark: one workload, run as a closed loop of fresh interpreters.

    python3 perfbench/run.py --workload conv_ft --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is `src/tinycil` of
that checkout. The runner first builds the workload's inputs from the seed
(untimed), then starts one run at a time, each in a fresh interpreter with
one BLAS thread, until the next run would end after `--seconds` (at least
five runs). After each untraced run it starts one more interpreter that
stops at the workload's entry (a set-up probe), so setup_s is a median over
twice as many samples as run_s. Each run's outputs are checked; a run fails
if it raises, produces a non-finite value, writes a `summary.csv` that
differs from the invocation's first run, drops below a quality floor, or
(eval_ckpt) gets other images back from the exemplar store round trip.
`attempted` and `failed` count the runs and the set-up probes.

With `--trace 0` the last line of standard output is the end-to-end result.
With `--trace 1` the first run is untraced and the rest are traced; the last
line carries the per-layer metrics (medians over the traced runs). Work
files go to `.bench_out/<workload>/`, including `details.json` with every
run's record, the quartiles and the machine block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
# every child is killed once the invocation has run this long, so that the
# runner always ends within its 180 s allowance
HARD_LIMIT_S = 170.0
STARTED = time.perf_counter()

MIN_RUNS = 5

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed and kept in details.json, not in the result line. The quality
# figures depend on the seed's data more than any BENCHMARK.json bound
# allows (bias_rate can even be 0); each run is checked against the
# workload's quality floors instead. run_cpu_s shows how much of run_s the
# process spent on a CPU.
INFORMATIONAL = {"top1": "ratio", "avg_inc_acc": "ratio", "bias_rate": "ratio",
                 "run_cpu_s": "s"}


class BenchmarkError(Exception):
    """The benchmark itself is broken; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    return env


def spawn(args: list[str], log_path: Path) -> dict:
    """Run child.py to completion; returns exit code, wall time and rusage.

    The child is killed when the invocation's hard limit passes, or when the
    runner itself is interrupted; either way it is reaped before returning.
    """
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    start = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(max(0.0, STARTED + HARD_LIMIT_S - start), proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": time.perf_counter() - start,
            "peak_rss_mb": ru.ru_maxrss / 1024.0, "user_s": ru.ru_utime,
            "sys_s": ru.ru_stime, "minor_faults": ru.ru_minflt}


def _log_tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])


def machine_info() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "tinycil").glob("*.py"))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "commit": commit,
            "src_tinycil_lines": src_lines}


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def check_run(rec: dict, workload, reference_sha: str | None) -> str | None:
    """Why a finished run failed, or None."""
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}: {rec['log_tail']}"
    res = rec["result"]
    if not res["finite"]:
        return "non-finite value in the step reports"
    if res.get("roundtrip") is False:
        return "exemplar store round trip returned other images"
    if reference_sha is not None and res["summary_sha256"] != reference_sha:
        return "summary.csv differs from the first run of this workload and seed"
    for key, floor in workload.floors.items():
        if not res[key] >= floor:
            return f"{key} {res[key]!r} below the floor {floor}"
    return None


def check_spans(rec: dict, workload) -> None:
    calls = rec["result"]["span_calls"]
    missing = [s for s in workload.required if not calls.get(s)]
    if missing:
        raise BenchmarkError(f"{workload.name}: traced run never entered {missing}")
    present = [s for s in workload.absent if calls.get(s)]
    if present:
        raise BenchmarkError(f"{workload.name}: traced run entered {present}, "
                             "which this workload must bypass")


def run_workload(workload, seed: int, seconds: int, trace: bool) -> dict:
    work = ROOT / ".bench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = ["--workload", workload.name, "--seed", str(seed), "--work", str(work)]

    prep = spawn(base + ["--mode", "prep", "--result", str(work / "prep.json")],
                 work / "prep.log")
    if prep["exit"] != 0:
        raise BenchmarkError(f"input preparation failed: {_log_tail(work / 'prep.log')}")
    inputs = json.loads((work / "prep.json").read_text())

    records: list[dict] = []
    probes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        i = len(records)
        traced = trace and i > 0
        rec = spawn(base + ["--mode", "run", "--out", str(work / f"run{i}"),
                            "--trace", str(int(traced)),
                            "--result", str(work / f"run{i}.json")],
                    work / f"run{i}.log")
        rec.update(index=i, traced=traced, result=None, log_tail="")
        if rec["exit"] == 0:
            rec["result"] = json.loads((work / f"run{i}.json").read_text())
        else:
            rec["log_tail"] = _log_tail(work / f"run{i}.log")
        records.append(rec)
        shutil.rmtree(work / f"run{i}", ignore_errors=True)
        if not trace:
            probe = spawn(base + ["--mode", "setup", "--out", str(work / "probe"),
                                  "--result", str(work / f"probe{i}.json")],
                          work / f"probe{i}.log")
            probe["result"] = (json.loads((work / f"probe{i}.json").read_text())
                               if probe["exit"] == 0 else None)
            probe["failure"] = (None if probe["exit"] == 0 else
                                f"setup probe exit code {probe['exit']}: "
                                f"{_log_tail(work / f'probe{i}.log')}")
            probes.append(probe)
            shutil.rmtree(work / "probe", ignore_errors=True)
        rec["iteration_s"] = time.perf_counter() - started
        estimate = statistics.median(r["iteration_s"] for r in records)
        enough = len(records) >= MIN_RUNS and (
            not trace or any(r["traced"] for r in records))
        if enough and time.perf_counter() + estimate > deadline:
            break

    reference = next((r["result"]["summary_sha256"] for r in records
                      if r["result"] is not None), None)
    for rec in records:
        rec["failure"] = check_run(rec, workload, reference)
        if rec["traced"] and rec["failure"] is None:
            check_spans(rec, workload)
    return {"inputs": inputs, "records": records, "probes": probes}


def end_to_end(records: list[dict], probes: list[dict]) -> dict:
    """Quartiles over the runs; setup_s also takes the setup probes."""
    stats = {}
    for name, unit in {**END_TO_END, **INFORMATIONAL}.items():
        if name == "peak_rss_mb":
            values = [r["peak_rss_mb"] for r in records]
        else:
            values = [r["result"][name] for r in records]
        if name == "setup_s":
            values += [p["result"]["setup_s"] for p in probes]
        stats[name] = dict(quartiles(values), unit=unit)
    return stats


def per_layer(records: list[dict], reference: dict) -> dict:
    """Medians over the traced runs, process counters from the untraced one."""
    traced = [r for r in records if r["traced"]]
    stats = {}
    for name in traced[0]["result"]["layers"]:
        stats[name] = quartiles([r["result"]["layers"][name] for r in traced])
    stats["tensor.gc_pause_s"] = quartiles([r["result"]["gc_pause_s"] for r in traced])
    stats["tensor.gc_collected"] = quartiles([r["result"]["gc_collected"]
                                              for r in traced])
    run_s = quartiles([r["result"]["run_s"] for r in traced])
    stats["trace.run_s"] = run_s
    stats["trace.overhead_s"] = quartiles([run_s["median"]
                                           - reference["result"]["run_s"]])
    stats["process.import_s"] = quartiles([reference["result"]["import_s"]])
    for name in ("user_s", "sys_s", "minor_faults"):
        stats[f"process.{name}"] = quartiles([reference[name]])
    return stats


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tinycil" / "__init__.py").is_file():
        print(f"error: no tinycil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # turn a termination request into SystemExit, so spawn() reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_before = os.getloadavg()
    try:
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    machine = machine_info()
    machine.update(loadavg_before=load_before, loadavg_after=os.getloadavg())

    records, probes = outcome["records"], outcome["probes"]
    for rec in records:
        kind = "traced" if rec["traced"] else "untraced"
        print(f"run {rec['index']} ({kind}): wall {rec['wall_s']:.3f} s, "
              f"user {rec['user_s']:.3f} s, sys {rec['sys_s']:.3f} s, "
              f"maxrss {rec['peak_rss_mb']:.1f} MB, "
              f"minor faults {rec['minor_faults']}: {rec['failure'] or 'ok'}")
    for i, probe in enumerate(probes):
        if probe["failure"]:
            print(f"setup probe {i}: {probe['failure']}")
    failed = [r for r in records + probes if r["failure"]]
    passed = [r for r in records if not r["failure"]]
    untraced = [r for r in passed if not r["traced"]]
    probes = [p for p in probes if not p["failure"]]
    details = {"workload": workload.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "machine": machine,
               "inputs": outcome["inputs"], "records": records,
               "probes": outcome["probes"]}
    details_path = ROOT / ".bench_out" / workload.name / "details.json"
    if not untraced or (args.trace and len(passed) < 2):
        details_path.write_text(json.dumps(details, indent=1))
        print(f"error: {len(failed)} of {len(records) + len(outcome['probes'])} runs "
              "failed; no result", file=sys.stderr)
        return 1

    e2e = end_to_end(untraced, probes)
    details["end_to_end"] = e2e
    print(f"workload {workload.name} seed {args.seed}: inputs {outcome['inputs']}")
    print(f"machine {json.dumps(machine)}")
    for name, s in e2e.items():
        print(f"  {name:<12} median {s['median']:.6g} {s['unit']} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    if args.trace:
        layers = per_layer(passed, untraced[0])
        details["per_layer"] = layers
        if set(layers) != set(PER_LAYER):
            details_path.write_text(json.dumps(details, indent=1))
            print("benchmark error: per-layer metrics differ from BENCHMARK.json: "
                  f"{sorted(set(layers) ^ set(PER_LAYER))}", file=sys.stderr)
            return 3
        for name, s in layers.items():
            print(f"  {name:<36} {s['median']:.6g}")
        metrics = {name: {"value": layers[name]["median"], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    details_path.write_text(json.dumps(details, indent=1))
    result = {"correct": not failed, "attempted": len(records) + len(outcome["probes"]),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
