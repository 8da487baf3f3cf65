"""Generate the config of the ``logistic-wide`` workload.

A wide synthetic logistic regression (400 samples x 5000 features, l2 =
0.1) sampled one component gradient at a time, stepped by six methods
over four seeds.  The benchmark seed is both the data seed and the master
seed, so ``memgrad optimize`` only ever receives generated input.

    python3 bench/gen_logistic.py --seed 3 --out logistic.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

N_SAMPLES = 400
DIM = 5000
L2 = 0.1
N_SEEDS = 4
# Short enough (about 1.5 s a pass) that a 40-second run takes about twelve
# pairs of passes, whose median rides out the host's speed swings.
ITERATIONS = 250
RECORD_STRIDE = 10

# Stepsizes stay below the memsgd rate threshold (p-1)/(pL), with
# L = max_i ||a_i||^2 / 4 + l2 ~ 1.3e3 for standard Gaussian rows.
METHODS = [
    {"name": "memsgd", "params": {"p": 2.0, "eta": 2e-4}},
    {"name": "hb", "params": {"eta": 2e-4, "beta": 0.9}},
    {"name": "adam", "params": {"eta": 1e-3}},
    {"name": "adagrad", "params": {"eta": 1e-2}},
    {"name": "adamnc", "params": {"eta": 1e-3}},
    {"name": "polyadam", "params": {"eta": 1e-3, "beta1": 0.9, "p2": 2.0}},
]


def working_set_bytes() -> int:
    """Size of the float64 feature matrix the gradient oracles sweep."""
    return N_SAMPLES * DIM * 8


def logistic_config(seed: int) -> dict:
    return {
        "problem": {
            "name": "logistic_synthetic",
            "params": {"n": N_SAMPLES, "dim": DIM, "seed": seed, "l2": L2},
            "noise": {"kind": "finite_sum"},
        },
        "methods": METHODS,
        "run": {
            "kind": "optimize",
            "iterations": ITERATIONS,
            "x0": [0.0] * DIM,
            "n_seeds": N_SEEDS,
            "record_stride": RECORD_STRIDE,
        },
        "output": {"directory": "out", "formats": ["csv"]},
        "master_seed": seed,
    }


def write_config(seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(logistic_config(seed)) + "\n", encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(f"wrote {write_config(args.seed, args.out)}")


if __name__ == "__main__":
    main()
