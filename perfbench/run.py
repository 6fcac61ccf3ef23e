"""ssbspec benchmark: CLI workloads end to end, or one traced pass per layer.

Run from the root of an ssbspec checkout:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

The program under test is the checkout's own ``src/`` (put on PYTHONPATH
for every child; nothing is installed).  Each timed invocation is a fresh
``python -m ssbspec ...`` process, started only after the previous one
exited: a closed loop with one client.  Every result is checked by
``oracle.py``; a non-zero exit or a failed check counts as failed.

``--trace 0`` measures whole cycles of the workload's commands until
``--seconds`` have passed and reports the end-to-end metrics.
``--trace 1`` runs one cycle untraced and one traced (spans around each
module's public calls, see ``tracing.py``) and reports per-layer
metrics.  Either way the last stdout line is one JSON object; the lines
before it are a readable table, and every invocation's raw wall, CPU and
memory go to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 9
IMPORTTIME_RUNS = 3
TAIL_BEYOND = 10  # cmd_tail_s: highest percentile with this many samples above it
INVOCATION_TIMEOUT_S = 150.0

# BENCHMARK.json, next to this directory, names the workloads and the metrics
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD_ENV = child_env()


def spawn(argv: list, work: str) -> dict:
    """Run one child to completion; wall from start to exit, rusage from wait4."""
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
        "stderr": stderr,
    }


def invoke(cmd, work: str, traced_spans: str | None = None) -> dict:
    """One CLI invocation of ``cmd``, checked by its oracle."""
    if cmd.out_path and os.path.exists(cmd.out_path):
        os.remove(cmd.out_path)
    if traced_spans is None:
        argv = [sys.executable, "-m", "ssbspec", *cmd.args]
    else:
        argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), traced_spans, "--", *cmd.args]
    run = spawn(argv, work)
    reason = cmd.check(run["exit"], run["stdout"])
    if reason is not None and run["exit"] != 0 and run["stderr"].strip():
        reason += " | stderr: " + run["stderr"].strip().splitlines()[-1]
    return {
        "label": cmd.label,
        "args": cmd.args,
        "exit": run["exit"],
        "ok": reason is None,
        "reason": reason,
        "wall_s": run["wall_s"],
        "cpu_s": run["cpu_s"],
        "rss_mb": run["rss_mb"],
        "sites": cmd.sites,
    }


def setup_probe(work: str) -> float:
    """Wall time from spawning a fresh interpreter until ``import ssbspec.cli`` returns."""
    code = "import ssbspec.cli\nimport time\nprint(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    run = spawn([sys.executable, "-c", code], work)
    if run["exit"] != 0:
        raise RuntimeError(f"import ssbspec.cli failed: {run['stderr'].strip()[-300:]}")
    return float(run["stdout"].strip()) - start


def import_times(work: str) -> dict:
    """Cumulative import times from ``python -X importtime``, medians of a few runs."""
    samples = {"ssbspec.cli": [], "scipy.linalg": []}
    for _ in range(IMPORTTIME_RUNS):
        run = spawn([sys.executable, "-X", "importtime", "-c", "import ssbspec.cli"], work)
        seen = {}
        for line in run["stderr"].splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m and m.group(3) in samples:
                seen[m.group(3)] = max(seen.get(m.group(3), 0.0), int(m.group(2)) * 1e-6)
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {
        "import.cli_s": statistics.median(samples["ssbspec.cli"]),
        "import.scipy_s": statistics.median(samples["scipy.linalg"]),
    }


def environment(load_start) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_env": {k: CHILD_ENV.get(k) for k in BLAS_THREAD_VARS},
        "loadavg_start": list(load_start),
        "machine": platform.machine(),
    }


def tail(walls: list) -> dict | None:
    """Highest percentile with TAIL_BEYOND samples above it, or None if too few."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    return {"value": sorted(walls)[n - TAIL_BEYOND - 1], "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def end_to_end(workload, work: str, seconds: float) -> tuple[dict, list, dict]:
    records, probes = [], []
    start = time.perf_counter()
    # setup probes spread evenly over the measured window, between
    # invocations, so they see the same machine as the commands do
    probe_at = [start + seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
    while True:  # whole cycles, so every command is sampled equally often
        cycle_start = time.perf_counter()
        for cmd in workload.commands:
            while len(probes) < SETUP_PROBES and probe_at[len(probes)] <= time.perf_counter():
                probes.append(setup_probe(work))
            records.append(invoke(cmd, work))
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:  # the next cycle would overrun
            break
    probes += [setup_probe(work) for _ in range(SETUP_PROBES - len(probes))]
    ok = [r for r in records if r["ok"]]
    if not ok:
        raise RuntimeError(f"no invocation passed its check; first failure: {records[0]['reason']}")
    walls = [r["wall_s"] for r in ok]
    metrics = {
        "setup_s": statistics.median(probes),
        "cmd_p50_s": statistics.median(walls),
        "cmd_cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    sweeps = [r for r in ok if r["sites"]]
    extra = {
        "cmd_tail_s": tail(walls),
        "sites_per_s": sum(r["sites"] for r in sweeps) / sum(r["wall_s"] for r in sweeps) if sweeps else None,
        "setup_probes_s": probes,
        "measured_s": time.perf_counter() - start,
    }
    return metrics, records, extra


def traced(workload, work: str, spans_dir: str) -> tuple[dict, list, dict]:
    from ssbspec.unitarygauge import UnitaryGaugeConfig

    import tracing

    metrics = import_times(work)
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(spans_dir)
    plain, records, traces = [], [], []
    for k, cmd in enumerate(workload.commands):
        # untraced then traced, back to back, so load drift hits both alike
        plain.append(invoke(cmd, work))
        path = os.path.join(spans_dir, f"invocation{k}.npz")
        rec = invoke(cmd, work, traced_spans=path)
        records.append(rec)
        traces.append((tracing.load(path), rec["wall_s"]))
    metrics.update(tracing.aggregate(traces, UnitaryGaugeConfig().max_iter))
    metrics["trace.untraced_wall_s"] = sum(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, plain + records, {"spans": os.path.relpath(spans_dir, ROOT)}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def verdict(workload, records) -> dict:
    """The result line's counts: any failure the workload does not expect makes the run wrong."""
    failed = [r for r in records if not r["ok"]]
    return {
        "correct": all(workload.known_failure(r["reason"]) for r in failed),
        "attempted": len(records),
        "failed": len(failed),
    }


def report(args, workload, env, metrics, units, records, extra) -> dict:
    failed = [r for r in records if not r["ok"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {json.dumps(workload.sizes)}")
    print(f"environment {json.dumps(env)}")
    for name, unit in units.items():
        print(f"  {name:36s} {_fmt(metrics[name]):>14s} {unit}")
    if args.trace:
        parts = ["cli.import_s", "cli.other_s"] + [k for k in units if k.endswith(".self_s")]
        print(f"  self-time check: {' + '.join(parts)} = {_fmt(sum(metrics[k] for k in parts))} s; "
              f"traced wall {_fmt(metrics['trace.wall_s'])} s (gridfile.bytes computed from array sizes)")
    else:
        t = extra["cmd_tail_s"]
        print(f"  {'cmd_tail_s':36s} " + (
            f"{_fmt(t['value']):>14s} s  (p{t['percentile']:.1f} of {t['samples']} samples)" if t
            else f"{'n/a':>14s}    (needs more than {TAIL_BEYOND} samples, got {len(records) - len(failed)})"))
        if extra["sites_per_s"] is not None:
            print(f"  {'sites_per_s':36s} {_fmt(extra['sites_per_s']):>14s} 1/s")
    print(f"  {'fail_ratio':36s} {_fmt(len(failed) / len(records)):>14s} ratio  ({len(failed)} of {len(records)} invocations)")
    for r in failed:
        known = " (known failure)" if workload.known_failure(r["reason"]) else ""
        print(f"  FAILED{known} {r['label']}: {r['reason']}")
    return {
        **verdict(workload, records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    load_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ssbspec", "cli.py")) or not os.path.isdir(os.path.join(ROOT, "models")):
        print(f"perfbench: {ROOT} has no src/ssbspec or models/; run from the root of an ssbspec checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in WHY:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WHY)}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = workloads.build(args.workload, args.seed, work)
        if workload.one_blas_thread:
            # With the default pool on a 2-CPU machine the idle workers spin
            # beside the solver's tiny matrix calls: the same 48x48 sweep took
            # 4.3-8.8 s at twice its wall time in CPU, against 5.0-6.9 s and
            # CPU equal to wall with one thread (see README.md).
            CHILD_ENV.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        env = environment(load_start)
        if args.trace:
            metrics, records, extra = traced(workload, work, os.path.join(RESULTS, "spans", tag))
            units = PER_LAYER
        else:
            metrics, records, extra = end_to_end(workload, work, args.seconds)
            units = END_TO_END
        result = report(args, workload, env, metrics, units, records, extra)
        with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace, "why": WHY[args.workload],
                       "inputs": workload.sizes, "environment": env, "metrics": metrics, "extra": extra,
                       "invocations": records}, fh, indent=1)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
