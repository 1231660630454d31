"""In-process half of the benchmark, run as a child process.

Reads a JSON spec on stdin and writes one JSON object on stdout. The
parent sets PYTHONPATH so that the package under test is the checkout's.

mode "grid": evaluate the design-grid rows round after round for
`seconds`, timing each row; report the first result of every row and
which rows gave a different result on a later round.

mode "trace": run every operation of the workload once to warm up, then
alternate untraced and traced passes over them for `seconds`. Layer
metrics come from the traced passes; the untraced passes give the
tracing overhead. Companion operations stand in, untimed, for layers
the workload's own operations never reach.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from dataclasses import replace
from time import perf_counter

import d2d_secrecy as pkg
import d2d_secrecy.cli  # noqa: F401  (makes pkg.cli available)

from reference import DEFAULT_PARAMS
from tracer import LAYERS, NAME, Tracer, layer_metrics


def run_cli(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue()]


def grid_row(row: dict, d_grid: list[float]) -> list:
    """One design-grid operation: the critical distance, then both optima
    and the selection verdict at every link distance."""
    params = pkg.SystemParams(**{**DEFAULT_PARAMS, **row}, d=d_grid[0])
    d_star = pkg.critical_distance(params).d_star
    points = []
    for d in d_grid:
        point = replace(params, d=d)
        gz = pkg.optimal_guard_radius(point)
        an = pkg.optimal_power_split(point)
        verdict = pkg.selection_function(point)
        points.append([gz.parameter, an.parameter, verdict.f_value, verdict.better.value])
    return [d_star, points]


def _row_report(row: dict, result: list, d_grid: list[float]) -> dict:
    params = pkg.SystemParams(**{**DEFAULT_PARAMS, **row}, d=d_grid[0])
    return {"lambda_threshold": pkg.lambda_threshold(params),
            "d_star": result[0], "points": result[1]}


def grid(spec: dict) -> dict:
    rows, d_grid = spec["rows"], spec["d_grid"]
    first: dict[int, list] = {}
    unstable = [0] * len(rows)
    walls = []
    start = perf_counter()
    while True:
        for i, row in enumerate(rows):
            t0 = perf_counter()
            result = grid_row(row, d_grid)
            walls.append(perf_counter() - t0)
            if i not in first:
                first[i] = result
            elif result != first[i]:
                unstable[i] += 1
        if perf_counter() - start >= spec["seconds"]:
            break
    return {
        "walls": walls,
        "wall": perf_counter() - start,
        "rows": [_row_report(row, first[i], d_grid) for i, row in enumerate(rows)],
        "unstable": unstable,
    }


def _run_op(op: dict, d_grid: list[float]) -> list:
    return run_cli(op["cli"]) if "cli" in op else grid_row(op["row"], d_grid)


def _run_pass(ops: dict[int, dict], d_grid: list[float], tracer=None) -> tuple[float, dict]:
    outputs = {}
    t0 = perf_counter()
    for index, op in ops.items():
        if tracer is not None:
            tracer.op = index
        outputs[index] = _run_op(op, d_grid)
    return perf_counter() - t0, outputs


def trace(spec: dict) -> dict:
    """Untraced and traced passes over the workload's own operations, timed.

    A layer the own operations never reach is measured on that layer's
    companion operation, run under the same tracer after the timed traced
    pass, so that it neither enters the walls nor counts as attempted.
    """
    d_grid = spec["d_grid"]
    own = dict(enumerate(spec["ops"]))
    companions = {layer: (len(own) + k, op)
                  for k, (layer, op) in enumerate(spec["companions"].items())}

    _, first = _run_pass(own, d_grid)
    unstable = [0] * len(own)
    walls = {"untraced": [], "traced": []}
    passes, missing = [], set()
    needed: dict[int, dict] | None = None
    filled: dict[str, int] = {}
    companion_first: dict[int, list] = {}
    companion_unstable: dict[int, int] = {}
    start = perf_counter()
    while not passes or perf_counter() - start < spec["seconds"]:
        wall, outputs = _run_pass(own, d_grid)
        walls["untraced"].append(wall)
        tracer = Tracer()
        with tracer.installed():
            wall, traced_outputs = _run_pass(own, d_grid, tracer)
            if needed is None:
                reached = {s[NAME].partition(".")[0] for s in tracer.spans}
                filled = {layer: index for layer, (index, _) in companions.items()
                          if layer not in reached}
                needed = {index: companions[layer][1] for layer, index in filled.items()}
            _, extra = _run_pass(needed, d_grid, tracer)
        walls["traced"].append(wall)
        for i in own:
            unstable[i] += (outputs[i] != first[i]) + (traced_outputs[i] != first[i])
        for i, out in extra.items():
            companion_first.setdefault(i, out)
            companion_unstable[i] = companion_unstable.get(i, 0) + (out != companion_first[i])
        by_layer = {layer: {filled[layer]} if layer in filled else set(own)
                    for layer in LAYERS}
        metrics = layer_metrics(tracer.spans, by_layer)
        every = {**outputs, **extra}
        every_op = {**own, **needed}
        metrics["cli.stdout_bytes"] = sum(
            len(every[i][1].encode()) for i in by_layer["cli"] if "cli" in every_op[i]) or None
        passes.append(metrics)
        missing |= tracer.missing | tracer.hook_failures

    layers, counts_repeat = {}, True
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key.endswith(("_ms", "_us")):
            present = [v for v in values if v is not None]
            layers[key] = statistics.median(present) if present else None
        else:
            layers[key] = values[0]
            counts_repeat &= all(v == values[0] for v in values)

    def report(op: dict, out: list) -> dict:
        if "cli" in op:
            return {"cli": op["cli"], "code": out[0], "stdout": out[1]}
        return {"row": op["row"], **_row_report(op["row"], out, d_grid)}

    return {
        "layers": layers,
        "counts_repeat": counts_repeat,
        "walls": walls,
        "executions": 1 + 2 * len(passes),
        "outputs": [report(own[i], first[i]) for i in own],
        "unstable": unstable,
        "companions": [{**report(needed[i], out), "unstable": companion_unstable[i]}
                       for i, out in companion_first.items()],
        "filled": sorted(filled),
        "missing": sorted(missing),
    }


if __name__ == "__main__":
    request = json.load(sys.stdin)
    handler = {"grid": grid, "trace": trace}[request["mode"]]
    json.dump(handler(request), sys.stdout)
