"""Span tracing of the package's layers from outside the package.

Tracing wraps functions by rebinding every reference the package's
modules hold to them, including entries of module-level dict tables such
as the CLI's command table, and restores them afterwards. Spans (name,
start, end, parent, operation, info) stay in memory; layer metrics are
derived from them after a pass. A seam that a later version of the
package no longer has is reported as missing, and the metrics that need
it come out as None, instead of failing the run.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "d2d_secrecy"

NAME, START, END, PARENT, OP, INFO = range(6)


def _arrays(_, result):
    return {"nbytes": sum(int(a.nbytes) for a in result), "trials": len(result[0])}


def _points(arguments, result):
    counts, attrs = result
    params = arguments["params"]
    scene = (params.lambda_e, arguments["radius"], arguments["seed"], arguments["batch"])
    return {
        "nbytes": int(counts.nbytes + attrs.nbytes),
        "trials": len(counts),
        "points": int(counts.sum()),
        "scene": scene,
    }


def _gz_run(arguments, result):
    n = arguments["cfg"].n_trials
    # a run with no active trial raises, so result is None
    active = 0 if result is None else round(result.p_active.mean * n)
    return {"requested": n, "gz_requested": n, "active": active}


def _an_run(arguments, _):
    return {"requested": arguments["cfg"].n_trials}


# (span name, module, function names, hook deriving counts from the call)
SEAMS = (
    ("cli.main", "cli", ("main",), None),
    ("cli.command", "cli", ("cmd_*",), None),
    ("optimizer.optimal_guard_radius", "optimizer", ("optimal_guard_radius",), None),
    ("optimizer.optimal_power_split", "optimizer", ("optimal_power_split",), None),
    ("optimizer.selection_function", "optimizer", ("selection_function",), None),
    ("optimizer.critical_distance", "optimizer", ("critical_distance",), None),
    ("specfun.upper_incomplete_gamma", "specfun", ("upper_incomplete_gamma",), None),
    ("specfun.inverse", "specfun", ("inverse_upper_incomplete_gamma",), None),
    ("model.closed_form", "model",
     ("p_active", "p_cov_gz", "p_sec_gz", "p_cov_an", "p_sec_an"), None),
    ("montecarlo.run", "montecarlo", ("run_gz_trials",), _gz_run),
    ("montecarlo.run", "montecarlo", ("run_an_trials",), _an_run),
    ("montecarlo.batch_points", "montecarlo", ("_batch_points",), _points),
    ("montecarlo.link_gains", "montecarlo", ("_link_gains",), None),
    ("montecarlo.batch_reductions", "montecarlo", ("_batch_reductions",), _arrays),
)

LAYERS = ("cli", "optimizer", "specfun", "model", "montecarlo")


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]


def _rebind(original, replacement, undo):
    """Point every reference the package holds to original at replacement."""
    for module in _package_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                undo.append((namespace, key, value))
                namespace[key] = replacement
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        undo.append((value, k, v))
                        value[k] = replacement
                    elif isinstance(v, tuple) and any(x is original for x in v):
                        undo.append((value, k, v))
                        value[k] = tuple(replacement if x is original else x for x in v)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.missing: set[str] = set()
        self.hook_failures: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            result = None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = perf_counter()
                stack.pop()
                if hook is not None:
                    try:
                        span[INFO] = hook(signature.bind(*args, **kwargs).arguments, result)
                    except Exception:
                        self.hook_failures.add(name)

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = {n.rpartition(".")[2]: m for n, m in list(sys.modules.items())
                   if n.startswith(PACKAGE + ".")}
        undo: list = []
        try:
            for name, module_name, attrs, hook in SEAMS:
                module = modules.get(module_name)
                for attr in attrs:
                    if attr.endswith("*"):
                        found = [a for a in vars(module) if a.startswith(attr[:-1])
                                 and callable(getattr(module, a))] if module else []
                    else:
                        found = [attr] if module and hasattr(module, attr) else []
                    if not found:
                        self.missing.add(f"{module_name}.{attr}")
                    for a in found:
                        original = getattr(module, a)
                        _rebind(original, self._wrap(name, original, hook), undo)
            yield self
        finally:
            for container, key, value in reversed(undo):
                container[key] = value


def _sum_info(spans, key):
    return sum(s[INFO].get(key, 0) for s in spans if s[INFO])


def layer_metrics(spans: list[list], ops_by_layer: dict[str, set[int]]) -> dict:
    """Per-layer metrics for one pass; each layer uses the spans of the
    operations ops_by_layer names for it."""
    self_time = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= s[END] - s[START]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def select(name, ops):
        return [i for i in by_name.get(name, ()) if spans[i][OP] in ops]

    def per_parent(parent_name, child_name, ops):
        parents = set(select(parent_name, ops))
        kids = sum(1 for i in by_name.get(child_name, ()) if spans[i][PARENT] in parents)
        return kids / len(parents) if parents else None

    def total_ms(name, ops, own=False):
        picked = select(name, ops)
        values = [self_time[i] if own else spans[i][END] - spans[i][START] for i in picked]
        return 1e3 * sum(values) if picked else None

    def mean_us(name, ops):
        picked = select(name, ops)
        if not picked:
            return None
        return 1e6 * statistics.fmean(spans[i][END] - spans[i][START] for i in picked)

    def ratio(num, den):
        return num / den if den else None

    m = {}
    ops = ops_by_layer["cli"]
    m["cli.main_ms"] = total_ms("cli.main", ops)
    m["cli.command_ms"] = total_ms("cli.command", ops)
    m["cli.overhead_ms"] = total_ms("cli.main", ops, own=True)

    ops = ops_by_layer["optimizer"]
    for fn in ("optimal_guard_radius", "optimal_power_split",
               "selection_function", "critical_distance"):
        m[f"optimizer.{fn}_us"] = mean_us(f"optimizer.{fn}", ops)
    m["optimizer.critical_distance_f_evals"] = per_parent(
        "optimizer.critical_distance", "specfun.upper_incomplete_gamma", ops)

    ops = ops_by_layer["specfun"]
    m["specfun.upper_incomplete_gamma_us"] = mean_us("specfun.upper_incomplete_gamma", ops)
    m["specfun.inverse_us"] = mean_us("specfun.inverse", ops)
    m["specfun.upper_incomplete_gamma_calls"] = len(
        select("specfun.upper_incomplete_gamma", ops)) or None
    m["specfun.inverse_forward_evals"] = per_parent(
        "specfun.inverse", "specfun.upper_incomplete_gamma", ops)

    m["model.closed_form_us"] = mean_us("model.closed_form", ops_by_layer["model"])

    ops = ops_by_layer["montecarlo"]
    points = [spans[i] for i in select("montecarlo.batch_points", ops)]
    reductions = [spans[i] for i in select("montecarlo.batch_reductions", ops)]
    runs = [spans[i] for i in select("montecarlo.run", ops)]
    fill = [total_ms(n, ops, own=True)
            for n in ("montecarlo.batch_points", "montecarlo.link_gains")]
    fill = [x for x in fill if x is not None]
    m["montecarlo.rng_fill_ms"] = sum(fill) if fill else None
    m["montecarlo.reduction_ms"] = total_ms("montecarlo.batch_reductions", ops, own=True)
    m["montecarlo.tally_ms"] = total_ms("montecarlo.run", ops, own=True)
    scenes = Counter((s[OP], s[INFO]["scene"]) for s in points if s[INFO])
    m["montecarlo.builds_per_scene"] = max(scenes.values()) if scenes else None
    m["montecarlo.trial_use_frac"] = ratio(_sum_info(runs, "requested"),
                                           _sum_info(reductions, "trials"))
    m["montecarlo.batches"] = len(reductions) or None
    m["montecarlo.points_per_trial"] = ratio(_sum_info(points, "points"),
                                             _sum_info(points, "trials"))
    m["montecarlo.active_frac"] = ratio(_sum_info(runs, "active"),
                                        _sum_info(runs, "gz_requested"))
    m["montecarlo.bytes_computed"] = (_sum_info(points, "nbytes")
                                      + _sum_info(reductions, "nbytes")) or None
    return m
