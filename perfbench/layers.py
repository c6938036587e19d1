"""Per-layer metrics of the traced run.

Names follow `<module>.<function>.<stat>`; `<module>.self_s` is the self
time of all spans of one module.  What each metric should move, and on
which workloads, is recorded per module in perfbench/predictions.json.
"""

from __future__ import annotations

import tracer

ESTIMATE_IDS = ("lemma-ab", "PROD1", "PROD2", "POW_SMALL", "POW", "DIFF", "SEMI",
                "MAXREG", "DUHAMEL", "BILIN_M1", "BILIN", "BILIN_DIFF")

TIMED = ("calls", "self_s", "busy_s")
FUNCTION_STATS = (
    ("besov_analysis.besov_norm", TIMED),
    ("besov_analysis.block_lp_norms", TIMED),
    ("besov_analysis.block_multipliers", TIMED),
    ("nonlinearity.convective_term", TIMED),
    ("nonlinearity.apply_power", TIMED),
    ("nonlinearity.hermitian_defect", ("calls", "busy_s")),
    ("spectral_core.refine_physical", TIMED),
    ("spectral_core.field_from_fine_physical", TIMED),
    ("spectral_core.leray_project", TIMED),
    ("spectral_core.write_field", ("calls", "busy_s")),
    ("mild_solver.phi_map", TIMED),
    ("mild_solver.linear_part", TIMED),
    ("mild_solver.duhamel_apply", TIMED),
    ("mild_solver.record_norms", TIMED),
    ("mild_solver.pressure_recover", TIMED),
    ("mild_solver.residual_check", TIMED),
    ("mild_solver.smallness_gate", TIMED),
    ("lorentz_time.lorentz_norm", TIMED),
    ("estimates_lab.random_field", TIMED),
    ("reports.write_json", ("calls", "busy_s")),
)
MODULES = tracer.TRACED_MODULES + ("cli",)

UNITS = {"calls": "count", "self_s": "s", "busy_s": "s"}

# Metrics named for the caller whose cost they belong to, not for the
# module that defines the function: convective_term makes this reality
# check on every call, so it moves with convection.
SPAN_OF = {"nonlinearity.hermitian_defect": "spectral_core.hermitian_defect"}


def metric_specs():
    """[(name, unit, better)] in the order the traced run prints them."""
    specs = []
    for fn, stats in FUNCTION_STATS:
        specs += [(f"{fn}.{stat}", UNITS[stat], "lower") for stat in stats]
    specs += [
        ("besov_analysis.block_multipliers.reuse_ratio", "ratio", "higher"),
        ("spectral_core.fft.calls", "count", "lower"),
        ("spectral_core.fft.points", "count", "lower"),
        ("spectral_core.fft.bytes_computed", "B", "lower"),
        ("spectral_core.fft.busy_s", "s", "lower"),
        ("spectral_core.write_field.bytes", "B", "lower"),
        ("reports.write_json.bytes", "B", "lower"),
        ("mild_solver.picard.iterations", "count", "lower"),
        ("mild_solver.convective_term.per_node_per_phi", "count", "lower"),
    ]
    specs += [(f"estimates_lab.estimate_constant.{i}.ms_per_sample", "ms", "lower")
              for i in ESTIMATE_IDS]
    specs += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    specs += [
        ("cli.main.busy_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


def layer_values(doc, nodes, iterations, untraced_s):
    """Every per-layer metric from one traced call's span dump.

    nodes is the workload's time-node count, iterations the Picard count
    from its report (0 for verify-suite), untraced_s the wall time of the
    untraced call of the same input.
    """
    summary = tracer.summarize(doc)
    funcs = summary["functions"]
    values = {}
    for fn, stats in FUNCTION_STATS:
        rec = funcs.get(SPAN_OF.get(fn, fn), {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
        for stat in stats:
            values[f"{fn}.{stat}"] = rec[stat]
    grids = [t for _, t in tracer.tagged(doc, "besov_analysis.block_multipliers")]
    values["besov_analysis.block_multipliers.reuse_ratio"] = (
        len({tuple(g) for g in grids}) / len(grids) if grids else 0.0)
    fft = doc["fft"]
    values["spectral_core.fft.calls"] = fft["calls"]
    values["spectral_core.fft.points"] = fft["points"]
    values["spectral_core.fft.bytes_computed"] = fft["bytes_computed"]
    values["spectral_core.fft.busy_s"] = fft["busy_ns"] / 1e9
    values["spectral_core.write_field.bytes"] = sum(t for _, t in tracer.tagged(doc, "spectral_core.write_field"))
    values["reports.write_json.bytes"] = sum(t for _, t in tracer.tagged(doc, "reports.write_json"))
    values["mild_solver.picard.iterations"] = iterations
    phi_calls = funcs.get("mild_solver.phi_map", {}).get("calls", 0)
    conv_calls = funcs.get("nonlinearity.convective_term", {}).get("calls", 0)
    values["mild_solver.convective_term.per_node_per_phi"] = (
        conv_calls / (nodes * phi_calls) if phi_calls else 0.0)
    per_id = {i: [0.0, 0] for i in ESTIMATE_IDS}
    for ns, (iid, samples) in tracer.tagged(doc, "estimates_lab.estimate_constant"):
        per_id[iid][0] += ns / 1e6
        per_id[iid][1] += samples
    for iid, (ms, samples) in per_id.items():
        values[f"estimates_lab.estimate_constant.{iid}.ms_per_sample"] = ms / samples if samples else 0.0
    for m in MODULES:
        values[f"{m}.self_s"] = summary["modules"].get(m, 0.0)
    main_s = funcs[tracer.ROOT]["busy_s"]
    values["cli.main.busy_s"] = main_s
    values["trace.coverage"] = 1.0 - summary["modules"].get("cli", 0.0) / main_s
    values["trace.overhead_s"] = main_s - untraced_s
    return values
