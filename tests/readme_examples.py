"""Run every ``conespec`` line of README.md's ``sh`` blocks and exit 1 if
any of them fails.

Usage: ``python tests/readme_examples.py`` with the ``conespec`` console
script on PATH.  The lines run in a temporary directory that holds the
``field.json`` and ``scan.json`` they read; each line's exit code is
printed.  pytest does not collect this file.
"""

import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
INPUTS = {
    "field.json": '{"n": 4, "rank": 1, "components": {"0": [{"coeff": "1", '
                  '"alpha": [1, 1, 0, 0], "gamma": "0"}]}}',
    "scan.json": '{"n": 4, "k": 1, "t-values": "0,0.05", "j-max": 1}',
}


def main():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    failed = []
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in INPUTS.items():
            (Path(cwd) / name).write_text(text + "\n")
        for line in (l for b in blocks for l in b.splitlines()):
            argv = shlex.split(line, comments=True)
            if argv[:1] != ["conespec"]:
                continue
            rc = subprocess.run(argv, cwd=cwd,
                                stdout=subprocess.DEVNULL).returncode
            print(f"exit {rc}: {line}", flush=True)
            if rc:
                failed.append(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
