"""One pass of a workload in a fresh interpreter; started by run.py.

It imports algdeg from the checkout's `src`, builds the workload's field
contexts and generator sets, and prints `ready`: run.py times set-up from
the start of this interpreter to that line.  It then runs pass
--pass-index over the workload's items through `algdeg.cli.main`, probing
machine speed between items and checking every report, and prints one JSON
line with the raw record.  With --trace 1 it runs one pass untraced and the
same pass traced, so the tracing overhead is measured in one process.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import probe  # noqa: E402


def import_algdeg(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import algdeg
    import algdeg.cli  # noqa: F401  (everything the CLI loads is set-up)
    if not os.path.abspath(algdeg.__file__).startswith(src + os.sep):
        raise SystemExit(f"algdeg was imported from {algdeg.__file__}, not from {src}")


def cpu_seconds():
    """User plus system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_item(item, seed, report_path, tracer=None):
    from algdeg import cli

    argv = workloads.item_argv(item, seed, report_path)
    if os.path.exists(report_path):
        os.remove(report_path)
    code, error = None, None
    try:
        if tracer is not None:
            from tracing import install
            tracer.begin_item(" ".join(item["argv"]))
            install(tracer)
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc()
        t1 = time.perf_counter()
        c1 = cpu_seconds()
    finally:
        if tracer is not None:
            tracer.restore()
    return t1 - t0, c1 - c0, code, error


def expected_lattices(items):
    """Closed-form lattices of the survey items, keyed by item index."""
    return {i: workloads.expected_lattice(item)
            for i, item in enumerate(items) if item["kind"] == "survey"}


def run_pass(items, seed, reports_dir, expected, tracer=None):
    started = time.perf_counter()
    probes = [probe()]
    records = []
    for i, item in enumerate(items):
        path = os.path.join(reports_dir, f"item{i}.json")
        wall, cpu, code, error = run_item(item, seed, path, tracer)
        probes.append(probe())
        report = None
        if error is None and os.path.exists(path):
            with open(path) as fh:
                report = json.load(fh)
        failure = error or workloads.check(item, code, report, expected.get(i))
        speed = (probes[-2] + probes[-1]) / 2
        records.append({"argv": item["argv"], "wall_s": wall, "cpu_s": cpu,
                        "wall_norm": wall / speed, "cpu_norm": cpu / speed,
                        "exit": code, "failure": failure})
    return {"seed": seed,
            "wall_s": sum(r["wall_s"] for r in records),
            "probes_s": probes,
            "duration_s": time.perf_counter() - started,
            "items": records}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_algdeg(args.root)
    workloads.build_shapes(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out_dir = os.path.join(args.root, ".perfbench_out")
    reports_dir = os.path.join(out_dir, "reports", args.workload)
    os.makedirs(reports_dir, exist_ok=True)
    items = workloads.WORKLOADS[args.workload]
    expected = expected_lattices(items)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        from tracing import Tracer, layer_metrics
        plain = run_pass(items, args.seed, reports_dir, expected)
        tracer = Tracer()
        traced = run_pass(items, args.seed, reports_dir, expected, tracer)
        layers = layer_metrics(tracer)
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["wall_s"]
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
        record["passes"] = [plain, traced]
        record["layers"] = layers
    else:
        seed = workloads.pass_seed(args.seed, args.pass_index)
        record["passes"] = [run_pass(items, seed, reports_dir, expected)]
    record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
