"""Write golden_apply.json: the canonical output of every ``apply`` opcode
on one fixed rank-1 and one fixed rank-2 field, at k in {1, 2, 3} and
t in {0, 1/10, -3/7}, or the ValueError message where the operator
refuses the field.

Run from the repository root:  PYTHONPATH=src python tests/data/make_golden_apply.py
The fixture pins ``polytensor.apply_operator`` on fields; regenerate it
only when a change to an operator's output is intended.
"""

import json
import os
from fractions import Fraction

from conespec import polytensor as pt

FIELDS = {
    "rank1": {"n": 4, "rank": 1, "components": {
        "0": [{"coeff": "1", "alpha": [1, 1, 0, 0], "gamma": "0"},
              {"coeff": "-2/3", "alpha": [0, 0, 1, 0], "gamma": "-1"}],
        "2": [{"coeff": "3", "alpha": [0, 1, 0, 1], "gamma": "-1/2"}]}},
    "rank2": {"n": 3, "rank": 2, "components": {
        "0,1": [{"coeff": "1", "alpha": [1, 0, 1], "gamma": "-2"}],
        "1,0": [{"coeff": "1", "alpha": [1, 0, 1], "gamma": "-2"}],
        "1,1": [{"coeff": "5/2", "alpha": [0, 2, 0], "gamma": "1"},
                {"coeff": "-1", "alpha": [0, 0, 0], "gamma": "3"}],
        "2,2": [{"coeff": "2", "alpha": [1, 0, 0], "gamma": "0"}]}},
}
KS = (1, 2, 3)
TS = ("0", "1/10", "-3/7")


def record(op, name, k, t):
    field = pt.PolyTensor.from_json(FIELDS[name])
    rec = {"op": op, "field": name, "k": k, "t": t}
    try:
        out = pt.apply_operator(op, field, t=Fraction(t), k=k)
    except ValueError as exc:
        rec["error"] = str(exc)
    else:
        rec["out"] = out.canonical().to_json()
    return rec


def records():
    return [record(op, name, k, t) for op in pt.OPCODES for name in FIELDS
            for k in KS for t in TS]


def main():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_apply.json")
    with open(path, "w") as fh:  # one record per line
        fh.write('{"fields": %s,\n "records": [\n  ' % json.dumps(FIELDS))
        fh.write(",\n  ".join(json.dumps(rec) for rec in records()))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
