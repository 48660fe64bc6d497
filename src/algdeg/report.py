"""Verification reports: per-claim records with a versioned JSON schema.

A claim is {id, anchor, status, data} with status one of verified, falsified,
inconclusive, skipped.  `claim` is the one constructor of a checked claim,
and it holds the one rule from a verdict to a status: True is verified, False
is falsified and None is inconclusive.  `norton_claim` maps a kernel-vector
verdict onto that rule.  `skipped` is the one constructor of a claim that was
not checked, and `Report.skip_all` writes such claims with their reason.  The
intersection dictionary (`canon.intersection_table`) keeps its own shape in
place of `data`: `computed` always, and `expected` only on a falsified claim,
since a verified one states that the two are equal.

Wall-clock timing lives in a separate top-level list, one {claims, seconds}
record per timed phase, so the claim payload is byte-identical across runs for
a fixed (config, seed); --no-timing drops the list for literal reproducibility.
A report is written as one line of compact JSON, in one call to the C encoder
(an indent would select the pure-Python one); `python -m json.tool` reads it.
"""

import json
import time
from collections import Counter

from . import __version__

SCHEMA = "algdeg-report/2"

STATUS_ORDER = ("verified", "falsified", "inconclusive", "skipped")


def claim(cid, anchor, ok, data=None):
    """The claim record; `ok` is True (verified), False (falsified) or None (inconclusive)."""
    status = "inconclusive" if ok is None else "verified" if ok else "falsified"
    return {"id": cid, "anchor": anchor, "status": status,
            "data": {} if data is None else data}


def skipped(cid, anchor, data):
    """The record of a claim that was not checked; `data` holds its reason."""
    return {"id": cid, "anchor": anchor, "status": "skipped", "data": data}


def norton_claim(cid, anchor, res, want, data, holds=True):
    """A claim resting on a kernel-vector verdict `res` that should be `want`.

    `holds` is the deterministic rest of the claim.  It is falsified when that
    part fails or the verdict is the opposite one, and inconclusive when the
    verdict is inconclusive and the rest holds.
    """
    inconclusive = holds and res.verdict == "inconclusive"
    return claim(cid, anchor, None if inconclusive else holds and res.verdict == want, data)


class Report:
    def __init__(self, command, config, seed):
        self.command = command
        self.config = config
        self.seed = seed
        self.claims = []
        self.timing = []

    def add(self, claim):
        if claim["status"] not in STATUS_ORDER:
            raise ValueError(f"bad claim status {claim['status']!r}")
        self.claims.append(claim)

    def extend(self, claims, seconds):
        """Add the claims of one phase and record the phase's time once."""
        for c in claims:
            self.add(c)
        if claims:
            self.timing.append({"claims": [c["id"] for c in claims],
                                "seconds": round(seconds, 6)})

    def timed(self, fn, *args, tag=None):
        """Run fn, collect its claim list, and record the elapsed time once.

        A `tag`, such as a grid cell's `n5.q3`, prefixes each claim id as
        `tag.id`, in the claims and in their timing record alike.
        """
        t0 = time.monotonic()
        claims = fn(*args)
        if isinstance(claims, dict):
            claims = [claims]
        if tag is not None:
            for c in claims:
                c["id"] = f"{tag}.{c['id']}"
        self.extend(claims, time.monotonic() - t0)
        return claims

    def skip_all(self, ids_anchors, reason):
        for cid, anchor in ids_anchors:
            self.add(skipped(cid, anchor, {"reason": reason}))

    @property
    def counts(self):
        return Counter(c["status"] for c in self.claims)

    @property
    def exit_code(self):
        counts = self.counts
        if counts["falsified"]:
            return 1
        if counts["inconclusive"]:
            return 3
        return 0

    def to_json(self, with_timing=True):
        body = {
            "schema": SCHEMA,
            "tool": "algdeg",
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "claims": self.claims,
        }
        if with_timing:
            body["timing"] = self.timing
        return body

    def dumps(self, with_timing=True):
        return json.dumps(self.to_json(with_timing), sort_keys=True, separators=(",", ":"))

    def write(self, path, with_timing=True):
        with open(path, "w") as fh:
            fh.write(self.dumps(with_timing) + "\n")

    def print_summary(self):
        for c in self.claims:
            print(f"[{c['status']:>12}] {c['id']}: {c['anchor']}")
        counts = self.counts
        print("summary: " + ", ".join(f"{counts[s]} {s}" for s in STATUS_ORDER))
