"""The benchmark's workloads: CLI invocations, the shapes they set up, and their checks.

Each workload is a list of items.  An item is one `algdeg` command line; the
seed given to the benchmark is passed to every item as `--seed`, so the same
seed gives the same inputs.  After every item its JSON report is checked by
claim id and status (never by report bytes), and survey lattices are compared
with their closed forms, because `algdeg survey` marks any lattice verified.

Why each workload exists, and which layers it loads or bypasses, is written
in README.md next to this file.
"""

import hashlib

DIM_ORDER = ("C", "K", "Mstar", "Mstarstar", "T", "Ttilde", "TcapTtilde", "N", "U")


def _parse_field(spec):
    if "^" in spec:
        p, k = spec.split("^")
        return int(p), int(k)
    return int(spec), 1


def verify_all(field, n):
    return {"kind": "verify-all", "field": field, "n": n,
            "argv": ["verify-all", "--n-list", str(n), "--fields", field]}


def spin(vector, expect, field, n):
    return {"kind": "spin", "field": field, "n": n,
            "argv": ["spin", "--vector", vector, "--expect", expect, "--n", str(n),
                     "--field", field]}


def canon(field, n):
    return {"kind": "canon", "field": field, "n": n,
            "argv": ["canon", "--n", str(n), "--field", field]}


def survey(module, field, n, proper):
    """`proper` names the closed form of the proper nonzero members."""
    return {"kind": "survey", "field": field, "n": n, "module": module, "proper": proper,
            "argv": ["survey", "--module", module, "--n", str(n), "--field", field]}


def series(chain, field, n):
    # a projective point inside a chain must be written Mstar(a,d): the chain
    # is split on commas outside parentheses, so MstarP:a,d would break it
    return {"kind": "series", "field": field, "n": n, "chain": chain,
            "argv": ["series", "--chain", ",".join(chain), "--n", str(n), "--field", field]}


# Every grid cell's cost depends on its seed: the Norton tests spin every
# line of a random kernel, so an unlucky draw costs several times a lucky one.
# A run therefore draws each item under several seeds and reports per-item
# medians, and cells are small enough that a run holds many draws.  README.md
# gives the measurements behind the choice of cells.
WORKLOADS = {
    "grid-prime": [
        verify_all("5", 5),
        verify_all("7", 5),
        verify_all("5", 4),         # 5 | n+1: the only prime cell that runs hom_space
    ],
    "grid-ext": [
        verify_all("2^2", 3),
        verify_all("2^3", 3),
        verify_all("3^2", 3),
        # GF(25) without Norton tests: its verify-all cell reports an
        # inconclusive Norton verdict as falsified on some seeds (README.md)
        canon("5^2", 3),
        spin("eta", "U", "5^2", 3),
    ],
    "lattice": [
        survey("K", "3", 3, "Mstar(1,-1)+U"),
        survey("Mstar", "3", 4, "pieces"),
        survey("Mstar", "5", 3, "pieces"),
        survey("U", "5", 3, "none"),
        survey("Mstar", "7", 3, "pieces"),
        # criterion 07(a): both refinements of the split square-zero module
        series(["0", "U", "K"], "5", 3),
        series(["0", "Mstar(1,-1)", "K"], "5", 3),
        # criterion 07(b): the unique chain at (4, GF(3))
        series(["0", "Mstar(1,-1)", "U", "K"], "3", 4),
    ],
}

# Seconds one pass takes on the reference machine (README.md), probes
# included.  A run makes round(--seconds / this) passes, at least one, so how
# much work a run does is fixed by its arguments unless the machine is so
# slow that run.py stops early to end near --seconds.
NOMINAL_PASS_S = {"grid-prime": 5.5, "grid-ext": 2.0, "lattice": 8.0}


def pass_count(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def pass_seed(seed, k):
    """The seed of pass k: the run's seed for pass 0, a stable hash of it after."""
    if k == 0:
        return seed
    digest = hashlib.blake2b(f"{seed}/pass{k}".encode(), digest_size=6).digest()
    return int.from_bytes(digest, "big")


def item_argv(item, seed, report_path):
    return item["argv"] + ["--seed", str(seed), "--json", report_path]


def build_shapes(workload):
    """Build every FieldCtx and standard generator set the workload uses."""
    from algdeg.gfield import make_field
    from algdeg.spinmx import standard_generators
    shapes = {(item["field"], item["n"]) for item in WORKLOADS[workload]}
    return [standard_generators(make_field(*_parse_field(field)), n) for field, n in shapes]


# -- checks ----------------------------------------------------------------------

def expected_lattice(item):
    """The closed-form survey lattice of a carrier: a set of Subspaces in F^(n^3)."""
    from algdeg import canon
    from algdeg.exactla import Subspace
    from algdeg.gfield import make_field

    ctx = make_field(*_parse_field(item["field"]))
    n = item["n"]
    carrier = canon.submodule(item["module"], ctx, n)
    if item["proper"] == "pieces":
        proper = {canon.basis_MstarP(ctx, n, p) for p in canon.ProjectivePoint.enumerate(ctx)}
        if len(proper) != ctx.order + 1:
            raise AssertionError("M* should have q+1 projective pieces")
    elif item["proper"] == "Mstar(1,-1)+U":
        proper = {canon.submodule("Mstar(1,-1)", ctx, n), canon.submodule("U", ctx, n)}
    elif item["proper"] == "none":
        proper = set()
    else:
        raise ValueError(f"unknown closed form {item['proper']!r}")
    return proper | {Subspace.zero(ctx, n ** 3), carrier}


def check(item, exit_code, report, expected=None):
    """Return None when the item's report is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if report is None:
        return "no report written"
    claims = report.get("claims") or []
    if not claims:
        return "no claims"
    bad = [c["id"] for c in claims if c.get("status") != "verified"]
    if bad:
        return f"claims not verified: {bad[:5]}"
    ids = {c["id"] for c in claims}
    kind = item["kind"]
    if report.get("command") != kind:
        return f"report command {report.get('command')!r}"
    if kind == "verify-all":
        p, k = _parse_field(item["field"])
        tag = f"n{item['n']}.q{item['field']}"
        want = [f"{tag}.dim.{name}" for name in DIM_ORDER]
        want += [f"{tag}.spin.eta", f"{tag}.spin.delta",
                 f"{tag}.degen.eta", f"{tag}.degen.delta"]
        if p ** k >= 5:
            want.append(f"{tag}.degen.lindeg")
        missing = [i for i in want if i not in ids]
        return f"missing claims: {missing[:5]}" if missing else None
    if kind == "canon":
        return None
    claim = next((c for c in claims if c["id"] == kind), None)
    if claim is None:
        return f"no {kind!r} claim"
    data = claim["data"]
    if kind == "spin":
        return None
    if kind == "series":
        if not (data.get("certified") and data.get("conclusive")):
            return "chain not certified"
        if len(data.get("factors", ())) != len(item["chain"]) - 1:
            return "wrong number of factors"
        return None
    from algdeg.exactla import Subspace
    got = [Subspace.from_json(m) for m in data["members"]]
    if len(got) != len(set(got)) or set(got) != expected:
        return f"lattice differs from its closed form: dims {data.get('dims')}"
    return None
