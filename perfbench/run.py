"""The algdeg benchmark: one command, three workloads, checked results.

    python3 perfbench/run.py --workload grid-prime --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  Each pass over the workload runs in a
fresh interpreter (perfbench/worker.py), single process, no workers; the
time from starting it to its `ready` line is a set-up sample, and a few
set-up-only interpreters between passes bring every run to at least
MIN_SETUP_SAMPLES.  With --trace 0 the last line of standard output is a
JSON object carrying the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced pass.  Lines before it give every metric by
name and unit, the seed, and the probe times.  Raw records go to
.perfbench_out/.  Exit code 2 means the checkout has no algdeg source; 1
means a run broke.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import REFERENCE_S  # noqa: E402

MIN_SETUP_SAMPLES = 12
OVERRUN = 1.15          # no pass starts that would end after OVERRUN * --seconds
RUN_LIMIT_S = 170       # a run must end within 180 s


def start_worker(root, args, extra, started):
    """Start worker.py; return seconds from its start to its ready line.

    The process is appended to `started`, so that it is stopped whatever
    happens to this one.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    started.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    return ready


def finish(proc, deadline):
    """Wait for the worker; return its record, the last line it printed, if any."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def measure(root, args, started):
    begun = time.monotonic()
    deadline = begun + RUN_LIMIT_S

    def run(extra):
        ready = start_worker(root, args, extra, started)
        return ready, finish(started[-1], deadline)

    if args.trace:
        return run(["--trace", "1"])[1]
    count = workloads.pass_count(args.workload, args.seconds)
    extra = math.ceil(MIN_SETUP_SAMPLES / count) - 1
    record = {"workload": args.workload, "seed": args.seed, "trace": 0,
              "passes": [], "setup_s": [], "peak_rss_mb": 0.0}
    for k in range(count):
        t0 = time.monotonic()
        ready, done = run(["--pass-index", str(k)])
        if "passes" not in done:
            raise RuntimeError("worker printed no record")
        record["setup_s"].append(ready)
        record["passes"] += done["passes"]
        record["peak_rss_mb"] = max(record["peak_rss_mb"], done["peak_rss_mb"])
        for _ in range(extra):
            record["setup_s"].append(run(["--setup-only"])[0])
        # on a slow machine, or with a slower program, the run ends near
        # --seconds with fewer passes
        now = time.monotonic()
        if now + (now - t0) > min(deadline, begun + OVERRUN * args.seconds):
            break
    return record


def summarise(record, trace):
    """The result JSON, and the context lines printed before it."""
    passes = record["passes"]
    checks = [item for p in passes for item in p["items"]]
    failed = sum(1 for item in checks if item["failure"])
    probes = [x for p in passes for x in p["probes_s"]]
    context = {"failed_frac": (failed / max(1, len(checks)), "ratio"),
               "probe_median_s": (statistics.median(probes), "s")}
    if trace:
        from tracing import unit_of
        values = {k: (v, unit_of(k)) for k, v in record["layers"].items()}
    else:
        def typical_pass(key):
            # per item, the median over the run's seeded draws; summed over items
            return sum(statistics.median(p["items"][i][key] for p in passes)
                       for i in range(len(passes[0]["items"])))

        raw_setup = statistics.median(record["setup_s"])
        values = {
            "wall_norm": (typical_pass("wall_norm"), "probe"),
            "cpu_norm": (typical_pass("cpu_norm"), "probe"),
            "setup_s": (raw_setup * REFERENCE_S / context["probe_median_s"][0], "s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
        context.update({"wall_s": (typical_pass("wall_s"), "s"),
                        "cpu_s": (typical_pass("cpu_s"), "s"),
                        "setup_raw_s": (raw_setup, "s")})
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    result = {"correct": failed == 0 and bool(checks), "attempted": len(checks),
              "failed": failed, "metrics": metrics}
    return result, context


def main(argv=None):
    ap = argparse.ArgumentParser(description="algdeg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "algdeg", "__init__.py")):
        print("error: run from the root of an algdeg checkout (no src/algdeg here)",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind through the finally below so no worker outlives us
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    started = []
    try:
        record = measure(root, args, started)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    result, context = summarise(record, args.trace)

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({"result": result, "context": context, "record": record}, fh)

    for item in (i for p in record["passes"] for i in p["items"] if i["failure"]):
        print(f"FAILED {' '.join(item['argv'])}: {item['failure']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(record['passes'])}")
    print("probe_s " + " ".join(f"{x:.4f}" for p in record["passes"] for x in p["probes_s"]))
    for k, (v, unit) in context.items():
        print(f"{k} {v} {unit}")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
