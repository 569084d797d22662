#!/usr/bin/env python3
"""Regenerate perfbench/reference_modes.json, the exact modes outputs.

    python3 perfbench/make_reference.py

For every cell and t the modes workload can draw (integer t excepted),
stores the exact det P(z) coefficients, the weight, m_ang and the root
multiplicities.  The file pins today's outputs: regenerate it only when
the exact mode systems are meant to change.
"""

import json
import sys
from fractions import Fraction

import run


def main():
    run.load_conespec()
    from conespec import mode_ode as mo

    cells = [(c, t) for c, zero in run.MODES_DECK
             for t in ((Fraction(0),) if zero else run.SMALL_T)]
    entries = {}
    for (n, k, j), t in cells:
        _, op = mo.tensor_mode_system(n, k, t, j)
        spec = mo.indicial_spectrum(op)
        entries[run.modes_key(n, k, j, t)] = {
            "det": [str(c) for c in op.det_poly()],
            "weight": str(op.weight), "m_ang": op.m_ang,
            "mults": [r.multiplicity for r in spec.roots]}
        print(run.modes_key(n, k, j, t), file=sys.stderr)
    doc = {"environment": run.environment(), "entries": entries}
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
