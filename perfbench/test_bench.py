"""Tests of the benchmark itself: deterministic traced counts, the correctness
gate, and refusal to run without the algdeg source.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

# small items shaped like each workload: short-row closures and a series
# (lattice), extension-field verify-all with the char-2 suites (grid-ext)
SMALL_ITEMS = [
    workloads.survey("Mstar", "3", 3, "pieces"),
    workloads.series(["0", "Mstar(1,-1)", "K"], "5", 3),
    workloads.verify_all("2^2", 3),
]

COUNT_SCRIPT = """
import json, sys
sys.path.insert(0, {here!r})
import tracing, worker, workloads
from test_bench import SMALL_ITEMS
worker.import_algdeg({root!r})
tracer = tracing.Tracer()
done = worker.run_pass(SMALL_ITEMS, 11, {reports!r}, worker.expected_lattices(SMALL_ITEMS),
                       tracer)
failures = [i["failure"] for i in done["items"] if i["failure"]]
metrics = tracing.layer_metrics(tracer)
print(json.dumps({{"failures": failures,
                  "counts": {{k: v for k, v in metrics.items()
                              if tracing.unit_of(k) == "count"}}}}))
"""


def traced_counts(tmp_path, hash_seed):
    reports = tmp_path / f"reports-{hash_seed}"
    reports.mkdir(exist_ok=True)
    code = COUNT_SCRIPT.format(here=HERE, root=ROOT, reports=str(reports))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    return result["counts"]


def test_traced_counts_repeat_across_runs_and_hash_seeds(tmp_path):
    first = traced_counts(tmp_path, 0)
    assert first == traced_counts(tmp_path, 0)
    assert first == traced_counts(tmp_path, 12345)
    for key in ("gfield.row_calls", "gfield.scalar_calls", "exactla.rref_calls",
                "structvec.act_calls.transvection", "spinmx.survey_lines",
                "spinmx.norton_draws", "degen.certs", "degen.spin_contains_calls",
                "gamma2.calls"):
        assert first[key] > 0, key


def _report(command, claims):
    return {"command": command, "claims": claims}


def _claim(cid, status="verified", data=None):
    return {"id": cid, "anchor": "", "status": status, "data": data or {}}


def test_verify_all_check_needs_every_claim_verified():
    item = workloads.verify_all("5", 3)
    tag = "n3.q5"
    ids = [f"{tag}.dim.{n}" for n in workloads.DIM_ORDER]
    ids += [f"{tag}.{x}" for x in ("spin.eta", "spin.delta", "degen.eta", "degen.delta",
                                   "degen.lindeg")]
    good = _report("verify-all", [_claim(i) for i in ids] + [_claim("COverN")])
    assert workloads.check(item, 0, good) is None
    assert workloads.check(item, 1, good) is not None
    falsified = _report("verify-all", [_claim(i) for i in ids] + [_claim("COverN", "falsified")])
    assert workloads.check(item, 0, falsified) is not None
    missing = _report("verify-all", [_claim(i) for i in ids[1:]])
    assert workloads.check(item, 0, missing) is not None


def test_series_check_needs_a_certified_chain():
    item = workloads.series(["0", "U", "K"], "5", 3)
    data = {"certified": True, "conclusive": True, "factors": [{}, {}]}
    assert workloads.check(item, 0, _report("series", [_claim("series", data=data)])) is None
    data = dict(data, certified=False)
    assert workloads.check(item, 0, _report("series", [_claim("series", data=data)])) is not None


def test_survey_check_compares_with_the_closed_form():
    item = workloads.survey("Mstar", "3", 3, "pieces")
    expected = workloads.expected_lattice(item)
    assert len(expected) == 3 + 1 + 2          # q+1 pieces, 0 and the carrier
    members = sorted((s.to_json() for s in expected), key=json.dumps)
    whole = _report("survey", [_claim("survey", data={"members": members})])
    assert workloads.check(item, 0, whole, expected) is None
    short = _report("survey", [_claim("survey", data={"members": members[1:]})])
    assert workloads.check(item, 0, short, expected) is not None


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
