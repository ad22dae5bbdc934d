#!/usr/bin/env python3
"""Regenerate test_output.txt: the Tier-1 test suite run verbosely, followed by
the acceptance gate's one line per criterion.

Usage: python scripts/acceptance_report.py [OUTPUT]

Runs ``python -m pytest -v --continue-on-collection-errors`` in the repository
root with src/ on PYTHONPATH and writes its output to OUTPUT (default
test_output.txt in the repository root). The repository root and the
interpreter path are written as "." and "python", so captures from different
checkouts compare line by line. Exits with pytest's code, which is 1 while the
acceptance criteria 5-8 fail as NOTES.md explains.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION_LINE = re.compile(r"ACCEPTANCE \d+: .*")


def main(argv):
    out_path = Path(argv[1]) if len(argv) > 1 else ROOT / "test_output.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # -rfEP keeps the summary of failures and errors and adds the captured
    # output of passing tests, where the passing criteria print their lines;
    # failing ones print theirs under FAILURES
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-rfEP", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    text = (run.stdout + run.stderr).replace(str(ROOT), ".").replace(sys.executable, "python")
    criteria = {}
    for match in CRITERION_LINE.finditer(text):
        number = int(match.group().split()[1].rstrip(":"))
        criteria.setdefault(number, match.group())
    gate = [" acceptance gate, one line per criterion ".center(80, "=")]
    gate += [criteria[n] for n in sorted(criteria)]
    out_path.write_text(text.rstrip("\n") + "\n\n" + "\n".join(gate) + "\n")
    print(f"wrote {out_path}: pytest exit code {run.returncode}, "
          f"{len(criteria)} acceptance lines")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
