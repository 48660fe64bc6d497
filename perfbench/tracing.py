"""Spans and counts around the calls into each algdeg layer, for the traced run.

Nothing in algdeg is edited.  `install` wraps each layer's public functions
and rebinds every name that refers to them in every loaded algdeg module:
`spinmx` binds `act_coords`, `kernel_rows` and `quotient_coords` by name, and
`degen` binds `spin_contains`, so rebinding only the defining module would
miss those calls.  Methods are wrapped on their class.

Three kinds of wrapper:

- span: records (name, start, end, parent) in memory; a span's self time is
  its duration minus the time its child spans and leaf calls cover.
- leaf: the row kernels and the structure-vector action run millions of
  times, so their calls are summed per name (count, time) instead of stored
  one by one; their time still counts as covered time of the enclosing span.
  A leaf calls only counted scalar operations, never another span.
- counter: scalar field operations, counted and not timed.

Spans stay in memory and `dump` writes them when the run ends.
"""

import json
import statistics
import sys
import time
from array import array
from collections import defaultdict

SCALAR_OPS = ("add", "sub", "neg", "mul", "inv")


def _algdeg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "algdeg" or name.startswith("algdeg."))]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_cover = array("d")
        self.stack = []
        self.items = []                    # (item label, index of its first span)
        self.counts = defaultdict(int)
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.durations = defaultdict(list)
        self._cells = {}
        self._in_leaf = False
        self._patches = []

    # -- wrappers --------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, after=None):
        nid = self._name_id(name)
        s_name, s_parent, s_cover = self.span_name, self.span_parent, self.span_cover
        s_start, s_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(s_start)
            parent = stack[-1] if stack else -1
            s_name.append(nid)
            s_parent.append(parent)
            s_cover.append(0.0)
            stack.append(idx)
            t0 = clock()
            s_start.append(t0)
            s_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_end[idx] = t1
                if parent >= 0:
                    s_cover[parent] += t1 - t0
            if after is not None:
                after(self, args, result, t1 - t0)
            return result

        return wrapper

    def leaf(self, name, fn, after):
        leaf_calls, leaf_s = self.leaf_calls, self.leaf_s
        s_cover, stack = self.span_cover, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_leaf = False
            leaf_calls[name] += 1
            leaf_s[name] += dt
            if stack:
                s_cover[stack[-1]] += dt
            after(self, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def rebind(self, module, attr, make, modules=None):
        """Wrap module.attr and rebind every algdeg global that refers to it."""
        orig = getattr(module, attr)
        new = make(orig)
        for m in modules if modules is not None else _algdeg_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._patches.append((m, key, orig))
                    setattr(m, key, new)

    def rebind_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def restore(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def begin_item(self, label):
        self.items.append((label, len(self.span_start)))

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Summed self time per span name."""
        out = defaultdict(float)
        names = self.names
        for nid, t0, t1, cover in zip(self.span_name, self.span_start, self.span_end,
                                      self.span_cover):
            out[names[nid]] += t1 - t0 - cover
        return out

    def span_counts(self):
        out = defaultdict(int)
        for nid in self.span_name:
            out[self.names[nid]] += 1
        return out

    def all_counts(self):
        counts = dict(self.counts)
        for name, cell in self._cells.items():
            counts[name] = counts.get(name, 0) + cell[0]
        return counts

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "items": self.items,
                "spans": {"name": list(self.span_name), "parent": list(self.span_parent),
                          "start": list(self.span_start), "end": list(self.span_end),
                          "covered": list(self.span_cover)},
                "leaf_calls": dict(self.leaf_calls),
                "leaf_s": dict(self.leaf_s),
                "counts": self.all_counts(),
            }, fh)


# -- the layer table -------------------------------------------------------------

SPAN_GROUPS = {
    # per-layer self-time metric -> the spans it sums
    "exactla.self_s": ("exactla.",),
    "canon.self_s": ("canon.",),
    "spinmx.spin_self_s": ("spinmx.spin.",),
    "spinmx.handle_self_s": ("spinmx.handle.",),
    "spinmx.norton_self_s": ("spinmx.norton.",),
    "spinmx.survey_self_s": ("spinmx.survey.",),
    "spinmx.hom_self_s": ("spinmx.hom.",),
    "degen.self_s": ("degen.",),
    "gamma2.self_s": ("gamma2.",),
    "report.self_s": ("report.",),
    "cli.self_s": ("cli.",),
}


def _count(key, amount=None):
    def after(tracer, args, result, *dt):
        tracer.counts[key] += 1 if amount is None else amount(args, result)
    return after


def _both(*afters):
    def after(tracer, args, result, *dt):
        for a in afters:
            a(tracer, args, result, *dt)
    return after


def _row_after(tracer, args, result):
    tracer.counts["gfield.row_entries"] += len(result)


def _act_after(tracer, args, result):
    tag = args[1].tag
    kind = tag[0] if tag is not None and tag[0] in ("transvection", "diagonal") else "general"
    tracer.counts["structvec.act_calls." + kind] += 1


def _norton_draws(args, result):
    detail = result.detail
    if "attempt" in detail:
        return detail["attempt"] + 1
    if detail.get("mode") == "exhaustive" or "attempts" in detail:
        from algdeg.spinmx import NORTON_ATTEMPTS
        return NORTON_ATTEMPTS
    return 0                                  # dimension 1: no draw needed


def _survey_lines(args, result):
    handle = args[0]
    q, d = handle.ctx.order, handle.dim
    return (q ** d - 1) // (q - 1)


def _cert(tracer, args, result, dt):
    tracer.counts["degen.certs"] += 1
    tracer.durations["degen.cert"].append(dt)


def install(tracer):
    """Wrap every layer's public entry points; undo with tracer.restore()."""
    from algdeg import canon, cli, degen, exactla, gamma2, gfield, report, spinmx, structvec
    t = tracer

    def spans(module, layer, names, after=None):
        for name in names:
            t.rebind(module, name, lambda f, name=name: t.span(f"{layer}.{name}", f, after))

    def methods(cls, layer, names, after=None):
        for name in names:
            t.rebind_method(cls, name, lambda f, name=name: t.span(f"{layer}.{name}", f, after))

    # gfield: row kernels as leaves, scalar operations counted
    for name in ("row_submul", "row_scale"):
        t.rebind_method(gfield.FieldCtx, name,
                        lambda f, name=name: t.leaf(f"gfield.{name}", f, _row_after))
    for name in SCALAR_OPS:
        t.rebind_method(gfield.FieldCtx, name,
                        lambda f: t.counter("gfield.scalar_calls", f))

    # exactla
    spans(exactla, "exactla", ("rref_rows",), _count(
        "exactla.rref_entries", lambda a, r: len(a[0]) * len(a[0][0]) if a[0] else 0))
    spans(exactla, "exactla", ("kernel_rows",), _count("exactla.kernel_calls"))
    spans(exactla, "exactla", ("reduce_against", "reduce_with_coeffs", "solve_right",
                               "quotient_coords", "null_space"))
    methods(exactla.Subspace, "exactla", ("sum", "intersect", "contains", "__le__",
                                          "quotient_dim", "coset_representatives"),
            _count("exactla.subspace_ops"))
    methods(exactla.Matrix, "exactla", ("mul", "rank", "inverse"))

    # structvec: the action, per generator tag
    t.rebind(structvec, "act_coords",
             lambda f: t.leaf("structvec.act_coords", f, _act_after))

    # canon
    spans(canon, "canon", [n for n in vars(canon) if n.startswith("basis_")],
          _count("canon.basis_calls"))
    spans(canon, "canon", ("submodule", "named_vector", "expected_dims", "eta", "delta",
                           "intersection_table", "check_trace_biconditional",
                           "trace_kernel_witness", "omega", "omega_preimage",
                           "predicate_C", "predicate_K", "predicate_Mstar",
                           "predicate_Mstarstar"))

    # spinmx
    dim_of = {"spin": lambda a, r: r.dim, "close_subspace": lambda a, r: r.dim,
              "handle_spin": lambda a, r: r[0].dim, "spin_contains": lambda a, r: 0}
    for name, dim in dim_of.items():
        spans(spinmx, "spinmx.spin", (name,),
              _both(_count("spinmx.spin_calls"), _count("spinmx.spin_dim", dim)))
    spans(spinmx, "spinmx.handle", ("module_handle", "dual_space_handle"),
          _count("spinmx.handle_calls"))
    spans(spinmx, "spinmx.norton", ("norton_irreducible",),
          _both(_count("spinmx.norton_calls"), _count("spinmx.norton_draws", _norton_draws)))
    spans(spinmx, "spinmx.survey", ("survey_submodules",),
          _both(_count("spinmx.survey_lines", _survey_lines),
                _count("spinmx.survey_members", lambda a, r: len(r))))
    spans(spinmx, "spinmx.hom", ("hom_space",),
          _both(_count("spinmx.hom_calls"),
                _count("spinmx.hom_unknowns", lambda a, r: a[0].dim * a[1].dim)))
    spans(spinmx, "spinmx.other", ("standard_generators", "is_generator_stable",
                                   "composition_series", "verify_lattice_diagrams"))

    # degen; its own binding of spin_contains is counted on top of the spin span
    spans(degen, "degen", ("reach_eta", "reach_delta"), _cert)
    spans(degen, "degen", ("lindeg_suite", "reach_eta_suite", "reach_delta_suite",
                           "verify_lindeg", "lindeg_theorem_check", "q_truncate",
                           "transvection_g5", "sample_in_between"))
    t.rebind(degen, "spin_contains", lambda f: t.counter("degen.spin_contains_calls", f),
             modules=[degen])

    # gamma2
    spans(gamma2, "gamma2", ("sigma", "star", "e_and_f", "eq15_identity_holds",
                             "gamma_handle", "sigma_gmap_claims",
                             "replay_irreducible_from", "verify_gamma_irreducible"),
          _count("gamma2.calls"))

    # report and cli
    methods(report.Report, "report", ("add", "extend", "timed", "skip_all", "to_json",
                                      "dumps", "write", "print_summary"))
    spans(cli, "cli", [n for n in vars(cli) if n.startswith("cmd_")])
    spans(cli, "cli", ("main", "build_parser", "field_spec", "dimension_arg",
                       "parse_vector", "split_chain"))


def _quartiles(values):
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def layer_metrics(tracer):
    """Every per-layer metric of the traced pass, by name."""
    counts = tracer.all_counts()
    selfs = tracer.self_times()
    span_counts = tracer.span_counts()
    leaf_calls, leaf_s = tracer.leaf_calls, tracer.leaf_s

    def c(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "gfield.row_calls": leaf_calls["gfield.row_submul"] + leaf_calls["gfield.row_scale"],
        "gfield.row_entries": c("gfield.row_entries"),
        "gfield.row_self_s": leaf_s["gfield.row_submul"] + leaf_s["gfield.row_scale"],
        "gfield.scalar_calls": c("gfield.scalar_calls"),
        "exactla.rref_calls": span_counts["exactla.rref_rows"],
        "exactla.rref_entries": c("exactla.rref_entries"),
        "exactla.kernel_calls": c("exactla.kernel_calls"),
        "exactla.subspace_ops": c("exactla.subspace_ops"),
        "structvec.act_calls.transvection": c("structvec.act_calls.transvection"),
        "structvec.act_calls.diagonal": c("structvec.act_calls.diagonal"),
        "structvec.act_calls.general": c("structvec.act_calls.general"),
        "structvec.act_self_s": leaf_s["structvec.act_coords"],
        "canon.basis_calls": c("canon.basis_calls"),
        "spinmx.spin_calls": c("spinmx.spin_calls"),
        "spinmx.spin_dim": c("spinmx.spin_dim"),
        "spinmx.handle_calls": c("spinmx.handle_calls"),
        "spinmx.norton_calls": c("spinmx.norton_calls"),
        "spinmx.norton_draws": c("spinmx.norton_draws"),
        "spinmx.norton_yield": ratio(c("spinmx.norton_calls"), c("spinmx.norton_draws")),
        "spinmx.survey_lines": c("spinmx.survey_lines"),
        "spinmx.survey_members": c("spinmx.survey_members"),
        "spinmx.survey_yield": ratio(c("spinmx.survey_members"), c("spinmx.survey_lines")),
        "spinmx.hom_calls": c("spinmx.hom_calls"),
        "spinmx.hom_unknowns": c("spinmx.hom_unknowns"),
        "degen.certs": c("degen.certs"),
        "degen.spin_contains_calls": c("degen.spin_contains_calls"),
        "gamma2.calls": c("gamma2.calls"),
        "trace.spans": len(tracer.span_start),
    }
    out["degen.cert_p50_s"], out["degen.cert_p75_s"] = _quartiles(tracer.durations["degen.cert"])
    for metric, prefixes in SPAN_GROUPS.items():
        out[metric] = sum(s for name, s in selfs.items() if name.startswith(prefixes))
    return out


LAYER_UNITS = {
    "gfield.row_self_s": "s", "structvec.act_self_s": "s", "degen.cert_p50_s": "s",
    "degen.cert_p75_s": "s", "spinmx.norton_yield": "ratio", "spinmx.survey_yield": "ratio",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def unit_of(metric):
    if metric in LAYER_UNITS:
        return LAYER_UNITS[metric]
    return "s" if metric in SPAN_GROUPS else "count"
