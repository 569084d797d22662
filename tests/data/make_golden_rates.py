"""Write golden_rates.json: the data block of ``rates`` runs for n = 3..8,
both families and j <= 6, and of ``gap`` runs for n = 3..6, each at
several exact t.

Run from the repository root:  PYTHONPATH=src python tests/data/make_golden_rates.py
The fixture pins the displayed roots, witnesses and clusters; regenerate it
only when a change to them is intended.
"""

import contextlib
import io
import json
import os

from conespec import cli

RATES_T = ["0", "1/20", "-1/20", "1/10", "-1/10", "1/3", "-2/5"]
GAP_T = ["0", "1/20", "-1/20", "1/10"]


def cells():
    rates = [["rates", "--n", str(n), "--family", family, "--j", str(j),
              "--t", t]
             for n in range(3, 9) for t in RATES_T
             for family, j_min in (("typeI", 1), ("typeII", 0))
             for j in range(j_min, 7)]
    gap = [["gap", "--n", str(n), "--t", t]
           for n in range(3, 7) for t in GAP_T]
    return rates + gap


def run(argv):
    """The data block of one run, which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {rc}")
    return {"argv": argv, "data": json.loads(buf.getvalue())["data"]}


def main():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_rates.json")
    with open(path, "w") as fh:
        rows = (json.dumps(run(argv)) for argv in cells())
        fh.write("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    main()
