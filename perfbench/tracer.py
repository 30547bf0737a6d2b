"""Outside-in tracer for one meanforce CLI child.

`install()` replaces the functions of every `meanforce` module with timing
wrappers, from outside: no file of the library changes.  Library code
imports names directly (`from .bath import lamb_shift_S`), so a function is
replaced in every `meanforce.*` namespace that holds it, not only in the
module that defines it.  Each call becomes a span (name, start, end, parent,
run id); self time is a span's duration minus its child spans.

Besides the library's own functions the tracer wraps scipy's `quad`, as bound
inside meanforce modules, to count integrand evaluations and subintervals
from the info dict that `adaptive_quad` requests, and scipy's `expm`, as
bound in `generators` and on `scipy.linalg` for function-local imports.

Pointwise kernels that quadrature evaluates once per integrand point are not
wrapped (POINTWISE).  Their time is the integrand's and counts as quadrature
self time; wrapping them would add a few microseconds to each of some 1e5
calls.
"""

import json
import sys
import time
import types
from functools import wraps

LAYERS = ("_quad", "bath", "corrections", "operators", "generators",
          "perturbative", "oracle", "validation", "cli")
POINTWISE = {
    "_quad": {"phi_kernel", "phi_kernel_prime", "phi_diff_quotient"},
    "bath": {"bose_occupation", "measure_value", "as_measure"},
    "corrections": {"kernel_D"},
    "perturbative": {"alpha_weight"},
}
# private functions whose calls are counted by a public metric
PRIVATE = {"bath": {"_lamb_shift_cached", "_integrated_matrices_cached"}}
INTEGRATED = ("bath.integrated_gamma_matrix", "bath.integrated_S_matrix")


def layer_name(module_name):
    """'meanforce._quad' -> 'quad' (metric names start with a letter)."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.spans = []          # [name, start, end, parent]
        self.stack = []          # indices into spans of the open calls
        self.child_time = []     # per open call: time inside its child spans
        self.calls = {}
        self.total = {}          # outermost calls only, so recursion counts once
        self.self_time = {}
        self.depth = {}
        self.layer_total = {}
        self.layer_depth = {}
        self.counters = {}
        self.n_freq = []         # frequency count of each open integrated call
        self.covered = 0.0       # time inside top-level library spans
        self.library_depth = 0
        self.originals = {}      # name -> unwrapped function, for cache_info()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, hook=None):
        layer = name.split(".", 1)[0]
        library = layer != "cli"
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            tracer.child_time.append(0.0)
            tracer.depth[name] = tracer.depth.get(name, 0) + 1
            tracer.layer_depth[layer] = tracer.layer_depth.get(layer, 0) + 1
            tracer.library_depth += library
            start = span[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[2] = tracer.clock()
                dur = end - start
                tracer.stack.pop()
                inner = tracer.child_time.pop()
                if tracer.child_time:
                    tracer.child_time[-1] += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + dur - inner
                tracer.depth[name] -= 1
                if tracer.depth[name] == 0:
                    tracer.total[name] = tracer.total.get(name, 0.0) + dur
                tracer.layer_depth[layer] -= 1
                if tracer.layer_depth[layer] == 0:
                    tracer.layer_total[layer] = tracer.layer_total.get(layer, 0.0) + dur
                tracer.library_depth -= library
                if library and tracer.library_depth == 0:
                    tracer.covered += dur
            if hook is not None:
                hook(result)
            return result

        return traced

    def count_quad(self, quad):
        tracer = self

        @wraps(quad)
        def counted(*args, **kwargs):
            result = quad(*args, **kwargs)
            tracer.count("quad.quad.calls")
            if kwargs.get("full_output") and isinstance(result[2], dict):
                tracer.count("quad.quad.neval", result[2].get("neval", 0))
                tracer.count("quad.quad.subintervals", result[2].get("last", 0))
            return result

        return counted

    def panel_hook(self, result):
        nodes = len(result[0])
        self.count("quad.panel_nodes.nodes", nodes)
        name = self.spans[self.stack[-1]][0] if self.stack else ""
        if self.n_freq and name.startswith("bath."):
            n = self.n_freq[-1]
            self.count("bath.integrated.node_pairs", nodes * n * n)
            self.count("bath.integrated.bytes_computed", nodes * n * 16)

    def dump(self, path, t_setup, t_end):
        """Write spans and aggregates; times are perf_counter seconds."""
        out = {
            "run_id": self.run_id,
            "t_setup": t_setup,
            "t_end": t_end,
            "covered": self.covered,
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
            "layer_total": self.layer_total,
            "counters": self.counters,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def _integrated_wrapper(tracer, fn):
    """Track the frequency count of the open integrated_* call for panel_nodes."""

    @wraps(fn)
    def inner(bath, freqs, *args, **kwargs):
        tracer.n_freq.append(len(freqs))
        try:
            return fn(bath, freqs, *args, **kwargs)
        finally:
            tracer.n_freq.pop()

    return inner


def _pair(e):
    return isinstance(e, tuple) and len(e) == 2


def install(run_id):
    """Wrap every meanforce function in every meanforce namespace; return the Tracer."""
    import scipy.integrate
    import scipy.linalg

    tracer = Tracer(run_id)
    modules = [m for n, m in sys.modules.items()
               if (n == "meanforce" or n.startswith("meanforce.")) and m is not None]
    replace = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        if short not in LAYERS:
            continue
        layer = layer_name(mod.__name__)
        skip = POINTWISE.get(short, set())
        private = PRIVATE.get(short, set())
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or attr in skip:
                continue
            if attr.startswith("_") and attr not in private:
                continue
            if isinstance(obj, type):
                for meth, fn in list(vars(obj).items()):
                    if isinstance(fn, types.FunctionType) and not meth.startswith("_"):
                        setattr(obj, meth, tracer.wrap(f"{layer}.{attr}.{meth}", fn))
            elif callable(obj):
                name = f"{layer}.{attr}"
                hook = tracer.panel_hook if name == "quad.panel_nodes" else None
                wrapped = tracer.wrap(name, obj, hook)
                if name in INTEGRATED:
                    wrapped = _integrated_wrapper(tracer, wrapped)
                replace[id(obj)] = wrapped
                tracer.originals[name] = obj

    replace[id(scipy.integrate.quad)] = tracer.count_quad(scipy.integrate.quad)
    expm = scipy.linalg.expm

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is expm:
                setattr(mod, attr, tracer.wrap(f"{layer_name(mod.__name__)}.expm", obj))
            elif id(obj) in replace:
                setattr(mod, attr, replace[id(obj)])
            elif isinstance(obj, tuple) and any(_pair(e) and id(e[1]) in replace for e in obj):
                # registries such as validation.ACCEPTANCE_CHECKS: ((name, fn), ...)
                setattr(mod, attr, tuple((e[0], replace.get(id(e[1]), e[1])) if _pair(e) else e
                                          for e in obj))
    # function-local `from scipy.linalg import expm` (validation, perturbative):
    # the span takes the layer of the calling module
    local = {}

    @wraps(expm)
    def local_expm(*args, **kwargs):
        caller = layer_name(sys._getframe(1).f_globals.get("__name__", "scipy"))
        if caller not in local:
            local[caller] = tracer.wrap(f"{caller}.expm", expm)
        return local[caller](*args, **kwargs)

    scipy.linalg.expm = local_expm
    return tracer
