"""Write golden_annulus.json: the annulus records of empirical_l0 and
three_annulus_verify on the benchmark's annulus spectra and the Defect 3
cells, and the coefficients ModeSolution.random draws.

Run from the repository root:  PYTHONPATH=src python tests/data/make_golden_annulus.py
The fixture pins the kernel draws of each seed and every failure count
reported on them; regenerate it only when a change to either is intended.
"""

import json
import os
from fractions import Fraction

import numpy as np

from conespec import mode_ode as mo

# the annulus workload's systems: (kind, n, j) at k = 1, t = 0
ANNULUS_CYCLE = (("scalar", 3, 2), ("scalar", 4, 1), ("scalar", 5, 1),
                 ("scalar", 6, 2), ("scalar", 3, 3), ("scalar", 4, 3),
                 ("scalar", 5, 3), ("tensor", 5, 1))
# the Defect 3 tensor cells (n, k, t, j)
DEFECT3 = ((4, 1, "0", 1), (5, 1, "0", 1), (4, 1, "-1/100", 1),
           (6, 2, "-1/10", 1))
SEEDS = (0, 7)
TRIALS = 200
# ModeSolution.random on (n, k, t, j); (4, 1, 0, 2) has zero roots
RANDOM_CELLS = ((5, 1, "0", 1), (4, 1, "0", 2))
RANDOM_SEEDS = (0, 7, 2024)


def cells():
    """(label, system) pairs; system is ("scalar", n, k, j) or
    ("tensor", n, k, t, j) with t a Fraction string."""
    out = [(f"{kind} n={n} j={j}",
            ("scalar", n, 1, j) if kind == "scalar" else
            ("tensor", n, 1, "0", j)) for kind, n, j in ANNULUS_CYCLE]
    return out + [(f"tensor n={n} k={k} t={t} j={j}", ("tensor", n, k, t, j))
                  for n, k, t, j in DEFECT3]


def spectrum(system):
    if system[0] == "scalar":
        _, op = mo.scalar_mode_system(*system[1:])
    else:
        n, k, t, j = system[1:]
        _, op = mo.tensor_mode_system(n, k, Fraction(t), j)
    return mo.indicial_spectrum(op)


def annulus_record(label, system, seed):
    spec = spectrum(system)
    bp = 0.45 * spec.beta
    return {
        "cell": label, "system": list(system), "seed": seed,
        "empirical_l0": mo.empirical_l0(spec, bp, trials=TRIALS, seed=seed),
        "empirical_l0_turan": mo.empirical_l0(spec, bp, trials=TRIALS,
                                              seed=seed, turan_check=True),
        "verify": [mo.three_annulus_verify(spec, bp, L, trials=TRIALS,
                                           seed=seed, turan_check=True)
                   for L in (1.01,) + mo.L0_CANDIDATES]}


def random_record(cell, seed):
    """ModeSolution.random's coefficients, rows (root, log power) in root
    order, each entry as the float.hex of its real and imaginary parts."""
    sol = mo.ModeSolution.random(spectrum(("tensor",) + cell),
                                 np.random.default_rng(seed))
    return {"system": ["tensor", *cell], "seed": seed,
            "coeffs": [[[float(v.real).hex(), float(v.imag).hex()]
                        for v in row] for row in sol.coeffs]}


def records():
    return {"annulus": [annulus_record(label, system, seed)
                        for label, system in cells() for seed in SEEDS],
            "random": [random_record(cell, seed) for cell in RANDOM_CELLS
                       for seed in RANDOM_SEEDS]}


def main():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_annulus.json")
    with open(path, "w") as fh:
        json.dump(records(), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
