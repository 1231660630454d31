"""The benchmark workloads, generated from the workload seed.

`mc-sweep` is a fixed rotation of `d2d-secrecy` invocations, run as fresh
processes; `design-grid` is a pool of (alpha, lambda_e) rows evaluated in
process. The seed chooses the Monte-Carlo `--seed` of every
simulated invocation and the design-grid rows. Monte-Carlo designs sit at
the reference optima r_g* and gamma*, taken from reference.py rather
than from the program under test.
"""

from __future__ import annotations

import random

from reference import closed_form

WORKLOADS = ("mc-sweep", "design-grid")

# Monte-Carlo seeds are the workload seed modulo MC_SEEDS. mc-validate
# reports a check as failed when the estimate misses the closed form by more
# than three half-widths, which a correct engine does by chance for about 1
# seed in 100 per invocation. Each of the seeds 0 .. MC_SEEDS - 1 passes both
# mc-validate invocations below at the commit that defined the benchmark, so
# a failed check signals a changed stream or a wrong estimate, not bad luck.
# A change that alters the random stream must screen these seeds again.
MC_SEEDS = 32

DESIGN_GRID_ROWS = 64
# link distances evaluated in every design-grid row, geometric in 0.1 .. 4
DESIGN_GRID_D = tuple(0.1 * 40.0 ** (i / 15) for i in range(16))


def mc_seed(seed: int) -> str:
    return str(seed % MC_SEEDS)


def _design(lambda_e: float, key: str) -> str:
    return repr(closed_form(4.0, lambda_e)[key])


def cli_ops(workload: str, seed: int) -> list[list[str]]:
    """The rotation of CLI argument lists one pass of a workload runs."""
    s = mc_seed(seed)
    if workload == "mc-sweep":
        # reference density 0.1: about 0.8 points per trial, so RNG fill
        # dominates the kernel, and sweep-d --mc builds each field 58 times;
        # at 150 000 trials its kernel takes longer than its import
        ops = (
            ("sweep-d", "--mc", "150000", "--seed", s),
            ("mc-validate", "--d", "0.6", "--r-g", _design(0.1, "r_g_star"),
             "--trials", "2000000", "--seed", s),
            ("mc-validate", "--d", "0.6", "--gamma", _design(0.1, "gamma_star"),
             "--trials", "2000000", "--seed", s),
        )
    else:
        raise ValueError(f"{workload} has no CLI operations")
    return [list(op) for op in ops]


def edge_probe(seed: int) -> list[str]:
    """A sweep at a density where no guard-zone trial is active.

    It is run once per mc-sweep run, outside the timed operations, and its
    exit code is reported: today the whole sweep aborts with exit 4.
    """
    return ["sweep-d", "--lambda-e", "3", "--mc", "2000", "--seed", mc_seed(seed)]


def companion_ops() -> dict[str, list[str]]:
    """One CLI invocation per layer. A traced run whose own operations never
    reach a layer measures that layer on its companion, outside the timed
    passes, so that every traced run reports every layer."""
    return {
        "cli": ["optimize", "--d", "0.6"],
        "optimizer": ["sweep-lambda"],
        "montecarlo": ["mc-validate", "--d", "0.6", "--r-g", _design(0.1, "r_g_star"),
                       "--trials", "1000000", "--seed", "0"],
    }


def lambda_of(argv: list[str]) -> float:
    """The eavesdropper density a CLI invocation runs at."""
    if "--lambda-e" in argv:
        return float(argv[argv.index("--lambda-e") + 1])
    return 0.1


def grid_rows(seed: int) -> list[dict]:
    """Design-grid rows as a Latin hypercube over alpha in [2.5, 8] and the
    relative density margin lambda_e / lambda_threshold - 1 in [1e-3, 10],
    log-spaced, so that rows just above the threshold are always present."""
    rng = random.Random(seed)
    n = DESIGN_GRID_ROWS
    strata = list(range(n))
    rng.shuffle(strata)
    rows = []
    for k in range(n):
        alpha = 2.5 + 5.5 * (k + rng.random()) / n
        margin = 10.0 ** (-3.0 + 4.0 * (strata[k] + rng.random()) / n)
        threshold = closed_form(alpha, 0.0)["lambda_threshold"]
        rows.append({"alpha": alpha, "lambda_e": threshold * (1.0 + margin)})
    return rows
