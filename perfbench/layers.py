"""Per-layer metrics from one traced child (the file `tracer.Tracer.dump` writes).

A layer is a module of `src/meanforce/`, named without its leading
underscore (`_quad` -> `quad`).  `<layer>.self_s` is the self time of all of
the layer's spans; `X.total_s` counts outermost calls of X only.
"""

import json

CHECKS = ("check_dual_form", "check_steady_coherence_identities",
          "check_second_order_residual", "check_fourth_order", "check_cumulant_cptp",
          "check_generator_agreement", "check_oracle_scaling", "check_headline",
          "check_sweep_structure", "check_integrated_psd")
LAYER_NAMES = ("quad", "bath", "corrections", "operators", "generators",
               "perturbative", "oracle", "validation", "cli")
INTEGRATED = ("bath.integrated_gamma_matrix", "bath.integrated_S_matrix")
# self time over the traced child's post-set-up wall time
SHARES = ("quad", "bath", "bath.integrated", "corrections", "operators", "generators",
          "perturbative", "oracle", "validation")

METRICS = (
    [("quad.adaptive_quad.calls", "count"),
     ("quad.adaptive_quad.self_s", "s"),
     ("quad.quad.neval", "count"),
     ("quad.quad.subintervals", "count"),
     ("quad.principal_value.calls", "count"),
     ("quad.panel_nodes.calls", "count"),
     ("quad.panel_nodes.nodes", "count"),
     ("bath.lamb_shift_S.calls", "count"),
     ("bath.lamb_shift_S.total_s", "s"),
     ("bath.S_cache.hit_ratio", "1"),
     ("bath.integrated.calls", "count"),
     ("bath.integrated.self_s", "s"),
     ("bath.integrated.cache_hit_ratio", "1"),
     ("bath.integrated.node_pairs", "count"),
     ("bath.integrated.bytes_computed", "B"),
     ("bath.finite_time_Gamma.calls", "count"),
     ("corrections.upsilon_mean_force.calls", "count"),
     ("corrections.upsilon_mean_force.total_s", "s"),
     ("corrections.upsilon_dynamical.total_s", "s"),
     ("corrections.upsilon_steady_offdiag.total_s", "s"),
     ("corrections.tls_diagonal_steady.total_s", "s"),
     ("corrections.build_upsilon_table.total_s", "s"),
     ("operators.total_s", "s"),
     ("generators.dissipative_generator.calls", "count"),
     ("generators.dissipative_generator.self_s", "s"),
     ("generators.expm.calls", "count"),
     ("generators.expm.total_s", "s"),
     ("generators.steady_state_of_generator.total_s", "s"),
     ("generators.cumulant_map.total_s", "s"),
     ("generators.propagate.total_s", "s"),
     ("generators.choi_matrix.total_s", "s"),
     ("perturbative.g40_tls_direct.total_s", "s"),
     ("perturbative.second_order_residual.total_s", "s"),
     ("oracle.exact_reduced_gibbs.calls", "count"),
     ("oracle.exact_reduced_gibbs.total_s", "s")]
    + [(f"validation.{c}.total_s", "s") for c in CHECKS]
    + [("validation.qubit_sweep_point.total_s", "s"),
       ("cli.load_config.total_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYER_NAMES]
    + [(f"{layer}.self_share", "1") for layer in SHARES]
    + [("trace.coverage", "1"),
       ("trace.spans", "count"),
       ("trace.overhead_s", "s"),
       ("trace.wall_s", "s")]
)
UNITS = dict(METRICS)

# The metrics of the result line.  A time that is zero on one of the
# BENCHMARK.json workloads (its layer is not reached there) is left out, since
# it would read the same on every run; the share of the layer's self time
# reports it instead.  Everything in METRICS is still printed above the line.
PER_LAYER = (
    "quad.adaptive_quad.calls", "quad.adaptive_quad.self_s", "quad.quad.neval",
    "quad.quad.subintervals", "quad.principal_value.calls", "quad.panel_nodes.calls",
    "quad.panel_nodes.nodes", "quad.self_s", "quad.self_share",
    "bath.lamb_shift_S.calls", "bath.lamb_shift_S.total_s", "bath.S_cache.hit_ratio",
    "bath.integrated.calls", "bath.integrated.cache_hit_ratio", "bath.integrated.node_pairs",
    "bath.integrated.bytes_computed", "bath.integrated.self_share",
    "bath.finite_time_Gamma.calls", "bath.self_s",
    "corrections.upsilon_mean_force.calls", "corrections.self_share",
    "operators.total_s", "operators.self_s",
    "generators.dissipative_generator.calls", "generators.expm.calls", "generators.self_share",
    "cli.load_config.total_s", "cli.self_s",
    "trace.coverage", "trace.spans", "trace.overhead_s", "trace.wall_s",
)


def _ratio(cache):
    n = cache["hits"] + cache["misses"]
    return cache["hits"] / n if n else 0.0


def metrics(path):
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    calls, total, self_t, counters = d["calls"], d["total"], d["self"], d["counters"]
    caches = counters.get("caches", {})
    out = {}
    for name, _ in METRICS:
        head, _, kind = name.rpartition(".")
        table = {"calls": calls, "total_s": total, "self_s": self_t}.get(kind, {})
        out[name] = table.get(head, 0)
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = sum(v for k, v in self_t.items() if k.split(".", 1)[0] == layer)
    out["operators.total_s"] = d["layer_total"].get("operators", 0.0)
    out["quad.quad.neval"] = counters.get("quad.quad.neval", 0)
    out["quad.quad.subintervals"] = counters.get("quad.quad.subintervals", 0)
    out["quad.panel_nodes.nodes"] = counters.get("quad.panel_nodes.nodes", 0)
    out["bath.S_cache.hit_ratio"] = _ratio(caches["bath._lamb_shift_cached"])
    out["bath.integrated.calls"] = sum(calls.get(n, 0) for n in INTEGRATED)
    out["bath.integrated.self_s"] = sum(
        self_t.get(n, 0.0) for n in INTEGRATED + ("bath._integrated_matrices_cached",))
    out["bath.integrated.cache_hit_ratio"] = _ratio(caches["bath._integrated_matrices_cached"])
    out["bath.integrated.node_pairs"] = counters.get("bath.integrated.node_pairs", 0)
    out["bath.integrated.bytes_computed"] = counters.get("bath.integrated.bytes_computed", 0)
    post_setup = d["t_end"] - d["t_setup"]
    for name in SHARES:
        out[f"{name}.self_share"] = out[f"{name}.self_s"] / post_setup
    out["trace.coverage"] = d["covered"] / post_setup
    out["trace.spans"] = len(d["spans"])
    return out
