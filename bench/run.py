"""Benchmark of the d2d-secrecy package, measured from outside the package.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that holds src/d2d_secrecy and
docs/output_schema.json. Workloads are described in bench/README.md.

--trace 0 measures the end-to-end metrics: mc-sweep runs fresh
`python -m d2d_secrecy.cli` processes closed-loop, one at a time, in whole
rotations for about --seconds; design-grid runs rows in one child process.
--trace 1 runs the same operations in process with the package's layers
wrapped in spans and prints the per-layer metrics.

Every output is checked: exit code, JSON schema, closed-form fields
against reference.py, Monte-Carlo all_pass, and identical stdout across
identical invocations. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds
the run's details and environment. Each run is also appended to
.bench_results/runs.jsonl at the checkout root for bench/summarize.py.
`--workload all` runs every workload in turn and prints them together.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import jsonschema

import workloads
from reference import closed_form, mismatches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "output_schema.json"
LOG = ROOT / ".bench_results" / "runs.jsonl"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# _ms figures are totals over one pass of the workload's operations, _us
# figures are means per call, counts are per pass unless named per call
PER_LAYER = {
    "import.d2d_secrecy_ms": "ms", "import.scipy_ms": "ms", "import.numpy_ms": "ms",
    "import.modules_loaded": "count",
    "cli.main_ms": "ms", "cli.command_ms": "ms", "cli.overhead_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "optimizer.optimal_guard_radius_us": "us", "optimizer.optimal_power_split_us": "us",
    "optimizer.selection_function_us": "us", "optimizer.critical_distance_us": "us",
    "optimizer.critical_distance_f_evals": "count",
    "specfun.upper_incomplete_gamma_us": "us", "specfun.inverse_us": "us",
    "specfun.upper_incomplete_gamma_calls": "count",
    "specfun.inverse_forward_evals": "count",
    "model.closed_form_us": "us",
    "montecarlo.rng_fill_ms": "ms", "montecarlo.reduction_ms": "ms",
    "montecarlo.tally_ms": "ms", "montecarlo.builds_per_scene": "ratio",
    "montecarlo.trial_use_frac": "ratio", "montecarlo.batches": "count",
    "montecarlo.points_per_trial": "ratio", "montecarlo.active_frac": "ratio",
    "montecarlo.bytes_computed": "bytes",
    "trace.overhead_frac": "ratio",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python(args: list[str], stdin: str | None = None) -> tuple[int, str, str, float]:
    """Run a fresh interpreter on the checkout; returns code, out, err, wall."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0


def environment() -> dict:
    probe = ("import json, d2d_secrecy, numpy, scipy, platform; print(json.dumps({"
             "'file': d2d_secrecy.__file__, 'python': platform.python_version(),"
             "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    code, out, err, _ = python(["-c", probe])
    if code != 0:
        raise RuntimeError(f"cannot import the package from {SRC}: {err.strip()}")
    info = json.loads(out)
    if not Path(info.pop("file")).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("the package was not imported from the checkout's src/")
    digest = hashlib.sha256()
    for path in sorted((SRC / "d2d_secrecy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(), **info}


# ---------------------------------------------------------------- checks

class Checker:
    """Output checks shared by the timed and the traced runs."""

    def __init__(self):
        self._validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
        self._refs: dict[tuple, dict] = {}
        self._first_stdout: dict[tuple, str] = {}

    def ref(self, alpha: float, lambda_e: float) -> dict:
        key = (alpha, lambda_e)
        if key not in self._refs:
            self._refs[key] = closed_form(alpha, lambda_e)
        return self._refs[key]

    def _fields(self, node, lambda_e: float) -> list[str]:
        if isinstance(node, list):
            return [p for item in node for p in self._fields(item, lambda_e)]
        if not isinstance(node, dict):
            return []
        if isinstance(node.get("lambda_e"), (int, float)):
            lambda_e = node["lambda_e"]
        problems = mismatches(node, self.ref(4.0, lambda_e))
        return problems + [p for v in node.values() for p in self._fields(v, lambda_e)]

    def cli(self, argv: list[str], code: int, stdout: str) -> list[str]:
        key = tuple(argv)
        first = self._first_stdout.setdefault(key, stdout)
        problems = [] if stdout == first else ["stdout differs from an identical invocation"]
        if code != 0:
            return problems + [f"exit code {code}"]
        try:
            report = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not JSON"]
        problems += [f"schema: {e.message}" for e in self._validator.iter_errors(report)]
        problems += self._fields(report, workloads.lambda_of(argv))
        if report.get("command") == "mc-validate" and report.get("all_pass") is not True:
            problems.append("mc-validate all_pass is false")
        return problems

    def row(self, row: dict, report: dict, d_grid) -> list[str]:
        ref = self.ref(row["alpha"], row["lambda_e"])
        problems = mismatches(
            {"lambda_threshold": report["lambda_threshold"], "d_star": report["d_star"]}, ref)
        d_star = ref["d_star"]
        for d, (r_g, gamma, f_value, better) in zip(d_grid, report["points"]):
            problems += mismatches({"r_g_star": r_g, "gamma_star": gamma}, ref)
            if d_star is not None and abs(d / d_star - 1.0) > 1e-6 \
                    and (f_value > 0.0) != (d > d_star):
                problems.append(f"F({d:g}) has the wrong sign for d* = {d_star:g}")
            if (better == "guard-zone") != (f_value > 0.0):
                problems.append(f"verdict {better} disagrees with F({d:g}) = {f_value:g}")
        return problems


def mc_trials(argv: list[str], stdout: str) -> int:
    """Monte-Carlo trials an invocation asked for."""
    if "--trials" in argv:
        return int(argv[argv.index("--trials") + 1])
    if "--mc" in argv:
        # sweep-d simulates both techniques at every grid distance
        return 2 * len(json.loads(stdout)["rows"]) * int(argv[argv.index("--mc") + 1])
    return 0


# ---------------------------------------------------------------- runs

def _cli_loop(ops: list[list[str]], seconds: float) -> tuple[list, float]:
    """Whole rotations of fresh CLI processes, as many as fit in seconds."""
    records, rotations, done = [], None, 0
    start = perf_counter()
    while rotations is None or done < rotations:
        for argv in ops:
            code, out, _, wall = python(["-m", "d2d_secrecy.cli", *argv])
            records.append((argv, code, out, wall))
        done += 1
        if rotations is None:
            rotations = max(1, round(seconds / (perf_counter() - start)))
    return records, perf_counter() - start


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    checker = Checker()
    detail: dict = {}
    problems: list[str] = []
    if workload == "design-grid":
        rows = workloads.grid_rows(seed)
        spec = {"mode": "grid", "rows": rows, "d_grid": workloads.DESIGN_GRID_D,
                "seconds": seconds}
        code, out, err, _ = python([str(ROOT / "bench" / "worker.py")], json.dumps(spec))
        if code != 0:
            raise RuntimeError(f"design-grid worker failed: {err.strip()}")
        result = json.loads(out)
        walls, loop_wall = result["walls"], result["wall"]
        peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        rounds = len(walls) // len(rows)
        failed = 0
        for row, report, unstable in zip(rows, result["rows"], result["unstable"]):
            row_problems = checker.row(row, report, workloads.DESIGN_GRID_D)
            failed += rounds if row_problems else unstable
            if unstable:
                row_problems.append("row result differs between rounds")
            problems += row_problems
        # Rows run in rounds, so row k's repetitions are walls[k::len(rows)].
        # The host has contention bursts shorter than a second; a row of a
        # few milliseconds, repeated in every round, has repetitions that
        # miss them all, so each row counts once with its fastest repetition.
        samples = [min(walls[k::len(rows)]) for k in range(len(rows))]
    else:
        ops = workloads.cli_ops(workload, seed)
        records, loop_wall = _cli_loop(ops, seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        # a fresh process cannot miss the bursts, so every wall counts
        walls = samples = [wall for *_, wall in records]
        failed = 0
        for argv, code, out, _ in records:
            op_problems = checker.cli(argv, code, out)
            failed += bool(op_problems)
            problems += op_problems
        trials = sum(mc_trials(argv, out) for argv, code, out, _ in records if code == 0)
        detail["mc_trials_per_s"] = trials / loop_wall
        probe = workloads.edge_probe(seed)
        code, out, _, _ = python(["-m", "d2d_secrecy.cli", *probe])
        # 4 is the documented exit for too few Monte-Carlo trials
        detail["edge_probe"] = {"argv": probe, "exit": code}
        if code not in (0, 4) or (code == 0 and checker.cli(probe, code, out)):
            problems.append(f"edge probe {' '.join(probe)} failed with exit {code}")

    setup = [python(["-c", "import d2d_secrecy"])[3] for _ in range(SETUP_REPEATS)]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(samples),
        "ops_per_s": len(samples) / sum(samples),
        "peak_rss_mb": peak_rss,
    }
    detail.update({"ops": len(walls),
                   "op_quartiles_s": statistics.quantiles(walls, n=4, method="inclusive"),
                   "op_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[8],
                   "loop_ops_per_s": len(walls) / loop_wall,
                   "setup_walls_s": setup, "failed_frac": failed / len(walls)})
    result = {"correct": not problems, "attempted": len(walls), "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}
    detail["problems"] = sorted(set(problems))[:20]
    return result, detail


def _import_layers() -> dict:
    """Import cost of a fresh process, by -X importtime: the package's
    cumulative time, the self time of every numpy and scipy module, and
    how many modules the import loads."""
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        code, _, err, _ = python(["-X", "importtime", "-c", "import d2d_secrecy"])
        if code != 0:
            raise RuntimeError(f"import failed: {err.strip()[-500:]}")
        entries = [(int(s), int(c), name) for s, c, _, name in pattern.findall(err)]
        samples.append({
            "import.d2d_secrecy_ms": next(c for _, c, n in entries if n == "d2d_secrecy") / 1e3,
            "import.scipy_ms": sum(s for s, _, n in entries if n.split(".")[0] == "scipy") / 1e3,
            "import.numpy_ms": sum(s for s, _, n in entries if n.split(".")[0] == "numpy") / 1e3,
            "import.modules_loaded": len(entries),
        })
    return {k: statistics.median(s[k] for s in samples) if k.endswith("_ms") else samples[0][k]
            for k in samples[0]}


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    checker = Checker()
    if workload == "design-grid":
        ops = [{"row": row} for row in workloads.grid_rows(seed)]
    else:
        ops = [{"cli": argv} for argv in workloads.cli_ops(workload, seed)]
    spec = {"mode": "trace", "ops": ops, "d_grid": workloads.DESIGN_GRID_D,
            "companions": {k: {"cli": v} for k, v in workloads.companion_ops().items()},
            "seconds": seconds}
    code, out, err, _ = python([str(ROOT / "bench" / "worker.py")], json.dumps(spec))
    if code != 0:
        raise RuntimeError(f"trace worker failed: {err.strip()[-2000:]}")
    result = json.loads(out)

    problems, failed = [], 0
    for output, unstable in zip(result["outputs"], result["unstable"]):
        if "cli" in output:
            op_problems = checker.cli(output["cli"], output["code"], output["stdout"])
        else:
            op_problems = checker.row(output["row"], output, workloads.DESIGN_GRID_D)
        if unstable:
            op_problems.append("output differs between passes")
        failed += result["executions"] if op_problems else 0
        problems += op_problems
    for output in result["companions"]:
        problems += checker.cli(output["cli"], output["code"], output["stdout"])
        if output["unstable"]:
            problems.append("companion output differs between passes")
    if not result["counts_repeat"]:
        problems.append("traced counts differ between passes")

    walls = result["walls"]
    layers = {**_import_layers(), **result["layers"],
              "trace.overhead_frac": statistics.median(walls["traced"])
              / statistics.median(walls["untraced"]) - 1.0}
    attempted = result["executions"] * len(result["outputs"])
    run = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": layers.get(k), "unit": u} for k, u in PER_LAYER.items()}}
    detail = {"passes": len(walls["traced"]), "pass_walls_s": walls,
              "filled_from_companions": result["filled"],
              "missing_seams": result["missing"], "problems": sorted(set(problems))[:20]}
    return run, detail


def run_all(seed: int, seconds: int, trace: int) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        code, out, err, _ = python([__file__, "--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace)])
        if code != 0:
            print(err, file=sys.stderr)
            return code
        result = json.loads(out.splitlines()[-1])
        print(f"{workload}:")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']!s:>24} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "d2d_secrecy" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: {ROOT} is not a d2d-secrecy checkout (need src/d2d_secrecy "
              "and docs/output_schema.json)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    run = traced_run if args.trace else timed_run
    result, detail = run(args.workload, args.seed, args.seconds)
    # after the run, so that the probe's imports stay out of peak_rss_mb
    env = environment()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, **detail}
    LOG.parent.mkdir(exist_ok=True)
    with LOG.open("a") as log:
        log.write(json.dumps({"time": time.time(), **detail, "result": result}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
