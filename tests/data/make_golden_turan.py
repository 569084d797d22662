"""Write golden_turan.json: the data block and exit code of single-instance
``turan --check discrete|integral|three-interval`` runs over several seeds
and term counts.

Run from the repository root:  PYTHONPATH=src python tests/data/make_golden_turan.py
The fixture pins the instance each check draws from its seed and the
record it reports; regenerate it only when a change to either is intended.
"""

import contextlib
import io
import json
import os

from conespec import cli

CHECKS = ["discrete", "integral", "three-interval"]
DS = [1, 2, 3, 5]
SEEDS = [0, 1, 7, 42]
# an explicit --m on top of the drawn one
EXTRA = [["--check", "discrete", "--d", "3", "--m", "20", "--seed", "5"]]


def cells():
    out = [["--check", check, "--d", str(d), "--seed", str(seed)]
           for check in CHECKS for d in DS for seed in SEEDS]
    return out + EXTRA


def run(argv):
    """Exit code and data block of one ``turan`` run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["turan", *argv])
    return {"argv": argv, "exit": rc,
            "data": json.loads(buf.getvalue())["data"]}


def main():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden_turan.json")
    with open(path, "w") as fh:
        json.dump([run(argv) for argv in cells()], fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
