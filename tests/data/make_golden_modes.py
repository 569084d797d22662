"""Write golden_modes.json: the exact probed P(z), weight and order of a few
cheap tensor mode systems, as strings.

Run from the repository root:  PYTHONPATH=src python tests/data/make_golden_modes.py
The fixture pins the exact output of ``tensor_mode_system``; regenerate it
only when a change to P(z) is intended.
"""

import json
import os
from fractions import Fraction

from conespec.mode_ode import tensor_mode_system

# (n, k, t, j): t = 0, integer t, small rational t, negative t, and k = 2;
# the last three put the traceless tangential Hessian family at j = 3, 4
# and n = 6, and reach k = 3.
CELLS = [
    (4, 1, "0", 1),
    (4, 1, "1", 1),
    (4, 1, "1/20", 2),
    (3, 1, "-1/4", 2),
    (5, 1, "1/10", 1),
    (4, 2, "1/10", 1),
    (4, 1, "1/20", 3),
    (3, 3, "0", 4),
    (6, 2, "1/3", 2),
]


def cell_record(n, k, t, j):
    t_value = Fraction(t)
    if t_value.denominator == 1:
        t_value = int(t_value)
    _, op = tensor_mode_system(n, k, t_value, j)
    return {"n": n, "k": k, "t": t, "j": j,
            "weight": str(op.weight), "order": op.order,
            "P": [[[str(c) for c in entry] for entry in row] for row in op.P]}


def main():
    out = [cell_record(*cell) for cell in CELLS]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_modes.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
