"""Spans at bdshift's module boundaries, recorded from the benchmark
process only; nothing under src/ changes.

``Tracer.install`` replaces, in every bdshift module, each module
attribute that is a function of a layer module by a wrapper: the public
functions of each layer in their own module, and every function one module
imports from another (``bdshift.numerics.multiply``,
``bdshift.derivations._terms_mul``, ``bdshift.cli.load_workspace``).  A span
records its name, start, end, parent span and job.  Spans stay in memory
in flat arrays and are written out at the end of the run.

``scalars`` is not wrapped: its dunder methods cost less than a span, so
that layer is reported by counts taken from the outputs of the exact
products.
"""

import inspect
import json
import sys
import traceback
from array import array
from time import perf_counter

LAYERS = ("profinite", "sequences", "algebra", "derivations", "numerics",
          "gns", "parser", "serialize", "cli")

# private functions wrapped although no other module imports them
EXTRA = {"gns._shell_min_sv"}


class Counters:
    """Sums and maxima keyed by metric name."""

    def __init__(self):
        self.values = {}

    def add(self, key, v):
        self.values[key] = self.values.get(key, 0) + v

    def maximum(self, key, v):
        self.values[key] = max(self.values.get(key, 0), v)

    def get(self, key):
        return self.values.get(key, 0)


# ---------------------------------------------------------------------------
# hooks: counts read from arguments and results.  "heavy" hooks get a span
# of their own (layer "trace") so their cost is not booked to a layer.  A
# hook that fails (say, after a refactor changes a signature) loses its
# count and is reported, but does not fail the job.


def _wire_scalars(node):
    """Every Gaussian-rational 4-tuple [re_num, re_den, im_num, im_den] in
    an element's JSON wire form, the representation-independent view."""
    if isinstance(node, list):
        if len(node) == 4 and all(type(v) is int for v in node):
            yield node
        else:
            for v in node:
                yield from _wire_scalars(v)
    elif isinstance(node, dict):
        for v in node.values():
            yield from _wire_scalars(v)


def _count_output(counters, result, terms_key=None):
    """Coefficient count and the largest numerator and denominator bit
    lengths of an exact element."""
    n = num = den = 0
    for re_num, re_den, im_num, im_den in _wire_scalars(result.to_json()):
        n += 1
        num = max(num, re_num.bit_length(), im_num.bit_length())
        den = max(den, re_den.bit_length(), im_den.bit_length())
    counters.add("scalars.coeffs_out", n)
    counters.maximum("scalars.max_num_bits", num)
    counters.maximum("scalars.max_den_bits", den)
    if terms_key is not None:
        counters.add(terms_key, len(result.terms))


def _dim_exact(args, space):
    data, M = args[0], args[1]
    return (2 * M + 1) * (data.level if space == "haar" else 1)


def _shell_bytes(counters, args, kwargs, result):
    # D*D and I + D*D over the padded window, then the shell block and
    # its inverse; D itself is counted by the nested build_D_* span
    data, space, M = args
    level = data.level if space == "haar" else 1
    big = 2 * M + abs(data.n) + 1
    dim_big = (2 * big + 1) * level
    dim_shell = 2 * M * level
    counters.add("gns.dense_bytes_computed",
                 16 * (2 * dim_big ** 2 + 2 * dim_shell ** 2))


def _covariance_bytes(counters, args, kwargs, result):
    # the conjugated and the residual matrix for every theta
    D, thetas = args[0], args[3]
    counters.add("gns.dense_bytes_computed",
                 16 * D.shape[0] ** 2 * 2 * len(thetas))


def _dense_build(counters, args, kwargs, result):
    dim = result.shape[0]
    counters.maximum("gns.window_dim_max", dim)
    counters.add("gns.dense_bytes_computed", 16 * dim * dim)


def _lcf_period(counters, args, kwargs, result):
    period = getattr(result, "period", None)
    if period is not None:
        counters.maximum("profinite.max_period", period)


HOOKS = {
    "algebra.multiply": (True, lambda c, a, k, r: _count_output(
        c, r, "algebra.multiply.terms_out")),
    "algebra.bilateral_multiply": (True, lambda c, a, k, r: _count_output(
        c, r, "algebra.bilateral_multiply.terms_out")),
    "derivations.apply": (True, lambda c, a, k, r: _count_output(c, r)),
    "derivations.bilateral_apply": (True, lambda c, a, k, r: _count_output(
        c, r)),
    "numerics.truncate_exact": (False, lambda c, a, k, r: c.add(
        "numerics.window_entries", len(r))),
    "numerics.truncate_unilateral": (False, lambda c, a, k, r: c.add(
        "numerics.window_entries", r.size)),
    "gns.build_D_tau0": (False, _dense_build),
    "gns.build_D_haar": (False, _dense_build),
    "gns.build_D_tau0_exact": (False, lambda c, a, k, r: c.maximum(
        "gns.window_dim_max", _dim_exact(a, "tau0"))),
    "gns.build_D_haar_exact": (False, lambda c, a, k, r: c.maximum(
        "gns.window_dim_max", _dim_exact(a, "haar"))),
    "gns._shell_min_sv": (False, _shell_bytes),
    "gns.check_covariance": (False, _covariance_bytes),
}
for _name in ("lcf_add", "lcf_mul", "lcf_shift", "lcf_scale",
              "lcf_conjugate", "lcf_constant", "lcf_from_periodic"):
    HOOKS[f"profinite.{_name}"] = (False, _lcf_period)

# span names that depend on the arguments
NAMERS = {
    "gns.parametrix_report": lambda args, kwargs: "gns.parametrix_report." + (
        args[2] if len(args) > 2 else kwargs.get("space", "tau0")),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        self.enabled = False
        self.counters = Counters()
        self.hook_id = self.name_id("trace.hook")
        self.hook_errors = {}

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        stack = self.stack
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.job.append(self.job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append(idx)
        return idx

    def _wrap(self, fn, name):
        tracer = self
        nid = self.name_id(name)
        heavy, hook = HOOKS.get(name, (False, None))
        namer = NAMERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(
                nid if namer is None
                else tracer.name_id(namer(args, kwargs)))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                h = tracer._open(tracer.hook_id) if heavy else None
                t2 = perf_counter()
                try:
                    hook(tracer.counters, args, kwargs, result)
                except Exception:  # a count is lost; the job goes on
                    tracer.hook_errors.setdefault(
                        name, traceback.format_exc())
                if h is not None:
                    tracer.start[h] = t2
                    tracer.end[h] = perf_counter()
                    tracer.stack.pop()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Wrap every boundary function in every loaded bdshift module."""
        layer_mods = {f"bdshift.{l}": l for l in LAYERS}
        modules = [m for n, m in sys.modules.items()
                   if n == "bdshift" or n.startswith("bdshift.")]
        targets = {}
        for mod in modules:
            for attr, val in vars(mod).items():
                if not inspect.isfunction(val):
                    continue
                layer = layer_mods.get(val.__module__)
                if layer is None:
                    continue
                qual = f"{layer}.{val.__name__}"
                home = val.__module__ == mod.__name__
                if not home or not attr.startswith("_") or qual in EXTRA:
                    targets[val] = qual
        wrappers = {fn: self._wrap(fn, q) for fn, q in targets.items()}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        return len(wrappers)

    # ------------------------------------------------------------------

    def dump(self, path):
        """Write the spans as columns; times in microseconds from the
        first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": list(self.name),
                "parent": list(self.parent),
                "job": list(self.job),
                "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
                "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
            }, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans

# inclusive time of the outermost span of any listed name; spans nested in
# one of the "outside" names are left out
GROUPS = {
    "algebra.multiply.ms": (["algebra.multiply"], []),
    "algebra.bilateral_multiply.ms": (["algebra.bilateral_multiply"], []),
    "algebra.mult_defect.ms": (["algebra.mult_defect"], []),
    "algebra.matrix_form.ms": (["algebra.to_matrix_form",
                                "algebra.from_matrix_form"], []),
    "algebra.matrix_units.ms": (["algebra.matrix_units"], []),
    "numerics.oracle_product_check.ms": (
        ["numerics.oracle_product_check"], []),
    "derivations.apply.ms": (["derivations.apply"], []),
    "derivations.classify.ms": (["derivations.classify"], []),
    "derivations.reassemble.ms": (["derivations.reassemble"], []),
    "derivations.fejer_mean.ms": (["derivations.fejer_mean"], []),
    "derivations.bilateral_apply.ms": (["derivations.bilateral_apply"], []),
    "derivations.quotient_derivation.ms": (
        ["derivations.quotient_derivation"], []),
    "derivations.extract_f.ms": (["derivations.extract_f"], []),
    "derivations.d_f_build.ms": (["derivations.d_f_build"], []),
    "gns.parametrix_report.tau0.ms": (["gns.parametrix_report.tau0"], []),
    "gns.parametrix_report.haar.ms": (["gns.parametrix_report.haar"], []),
    "gns.check_covariance.ms": (["gns.check_covariance"], []),
    "gns.build_D_exact.ms": (["gns.build_D_tau0_exact",
                              "gns.build_D_haar_exact"],
                             ["gns.build_D_tau0", "gns.build_D_haar"]),
    "gns.build_D_float.ms": (["gns.build_D_tau0", "gns.build_D_haar"], []),
    "gns.check_implementation.ms": (["gns.check_implementation"], []),
    "gns.states.ms": (["gns.tau0", "gns.tau_haar", "gns.pi0_apply",
                       "gns.pi_haar_apply", "gns.inner0", "gns.inner_haar"],
                      []),
    "serialize.load_workspace.ms": (["serialize.load_workspace"], []),
    "parser.parse.ms": (["parser.parse"], []),
    "parser.eval_ast.ms": (["parser.eval_ast"], []),
}

COUNTS = {
    "algebra.multiply.terms_out": "count",
    "algebra.bilateral_multiply.terms_out": "count",
    "scalars.coeffs_out": "count",
    "scalars.max_num_bits": "bits",
    "scalars.max_den_bits": "bits",
    "profinite.max_period": "count",
    "numerics.window_entries": "count",
    "gns.window_dim_max": "count",
    "gns.dense_bytes_computed": "bytes",
    "gns.min_sv_relerr_max": "ratio",
    "gns.covariance_residual_max": "ratio",
    "cli.stdout_bytes": "bytes",
}


def layer_metrics(tracer, counters):
    """Every per-layer metric as {name: (value, unit)}."""
    names, name, parent = tracer.names, tracer.name, tracer.parent
    start, end = tracer.start, tracer.end
    n = len(start)
    layer_of = [s.split(".")[0] for s in names]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    self_s = {l: 0.0 for l in LAYERS}
    calls = {l: 0 for l in LAYERS}
    for i in range(n):
        layer = layer_of[name[i]]
        if layer in self_s:
            self_s[layer] += end[i] - start[i] - child[i]
            calls[layer] += 1

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (self_s[layer] * 1e3, "ms")
        out[f"{layer}.calls"] = (calls[layer], "count")
    for metric, (inside, outside) in GROUPS.items():
        inside_ids = {tracer._ids[s] for s in inside if s in tracer._ids}
        outside_ids = {tracer._ids[s] for s in outside if s in tracer._ids}
        stop = inside_ids | outside_ids
        total = 0.0
        for i in range(n):
            if name[i] not in inside_ids:
                continue
            p = parent[i]
            while p >= 0 and name[p] not in stop:
                p = parent[p]
            if p < 0:
                total += end[i] - start[i]
        out[metric] = (total * 1e3, "ms")
    for key, unit in COUNTS.items():
        out[key] = (counters.get(key), unit)
    out["trace.spans"] = (n, "count")
    return out
