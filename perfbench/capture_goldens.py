"""Capture stdout bytes and exit codes of the cli_cold commands.

Usage, from the repository root:

    python3 perfbench/capture_goldens.py

Runs every command in ``workloads.CLI_COMMANDS`` once, as
``python -m finiverse ...`` with src/ on PYTHONPATH, and writes
``perfbench/cli_goldens.json``.  The committed file was captured at commit
fc12f79; recapture only when a change to the CLI's output is intended.
"""

import json
import os
import subprocess
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    goldens = []
    for argv in workloads.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "finiverse", *argv], cwd=ROOT, env=env,
                              capture_output=True, check=False)
        goldens.append({"argv": argv, "exit": proc.returncode,
                        "stdout": proc.stdout.decode("utf-8")})
        print(proc.returncode, " ".join(argv))
    with open(os.path.join(ROOT, "perfbench", "cli_goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
