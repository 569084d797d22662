"""Write golden_bootstrap.json: the terminal order, final order, barrier
inventory and full history of both decay inductions over a grid of
dimensions, orders and starts.

Run from the repository root:  PYTHONPATH=src python tests/data/make_golden_bootstrap.py
The fixture pins the exact output of ``bootstrap_infinity`` and
``bootstrap_origin``; regenerate it only when a change to either induction
is intended.
"""

import json
import os

from conespec.bootstrap import bootstrap_infinity, bootstrap_origin

# (n, k): the critical dimension n = 2(k+1) at k = 1, 2, the n = 3 degree-1
# mode, and two dimensions with a constant-profile barrier below the terminal
PAIRS = [(3, 1), (4, 1), (6, 2), (8, 1), (10, 3)]
# starts at infinity: below, on and past the integer barriers, then exactly
# at and past the terminal order T = n - 2k
INFINITY_STARTS = [1e-3, 0.3, 1.0, 1.7, "T", "T+1"]
# starts at the origin: below, on and past the Lie-pullback barrier at 1,
# then at and past the quadratic terminal order
ORIGIN_STARTS = [1e-3, 0.3, 1.0, 2.0, 3.0]


def state_record(state, start):
    # the json round trip turns barrier tuples into lists, as the CLI does
    return json.loads(json.dumps({
        "regime": state.regime, "n": state.n, "k": state.k, "start": start,
        "terminal": state.terminal, "final_order": state.order,
        "barriers": state.barriers, "history": state.history}))


def records():
    out = []
    for n, k in PAIRS:
        terminal = n - 2 * k
        for start in INFINITY_STARTS:
            if start == "T":
                start = terminal
            elif start == "T+1":
                start = terminal + 1
            out.append(state_record(bootstrap_infinity(n, k, start), start))
        for start in ORIGIN_STARTS:
            out.append(state_record(bootstrap_origin(n, k, start), start))
    return out


def main():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_bootstrap.json")
    with open(path, "w") as fh:
        json.dump(records(), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
