"""Run every ``conespec`` line of README.md's ``sh`` blocks and exit 1 if
any of them fails.

Usage: ``python tests/readme_examples.py``.  Each line runs as
``python -m conespec.cli ...`` with this checkout's ``src`` first on
PYTHONPATH, so no installed package or console script is needed.  The
lines run in a temporary directory that holds the ``field.json`` and
``scan.json`` they read; each line's exit code is printed.  pytest does
not collect this file.
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
INPUTS = {
    "field.json": '{"n": 4, "rank": 1, "components": {"0": [{"coeff": "1", '
                  '"alpha": [1, 1, 0, 0], "gamma": "0"}]}}',
    "scan.json": '{"n": 4, "k": 1, "t-values": "0,0.05", "j-max": 1}',
}


def main():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    failed = []
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in INPUTS.items():
            (Path(cwd) / name).write_text(text + "\n")
        for line in (l for b in blocks for l in b.splitlines()):
            argv = shlex.split(line, comments=True)
            if argv[:1] != ["conespec"]:
                continue
            rc = subprocess.run(
                [sys.executable, "-m", "conespec.cli", *argv[1:]], cwd=cwd,
                env=env, stdout=subprocess.DEVNULL).returncode
            print(f"exit {rc}: {line}", flush=True)
            if rc:
                failed.append(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
