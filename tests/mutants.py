"""Mutation gate for the geometry and field kernels (standard library only).

Each mutant is a one-token edit of a named source snippet under
``src/finiverse``.  For each one, ``src/`` is copied to a temporary
directory, the edit is applied there, and the kernel test files run
against the copy; at least one test must fail.  The unmutated copy runs
first and must pass, and must be the package the tests import, so that a
broken suite or a stray install cannot kill every mutant.

A snippet that does not occur exactly once stops the script before any
run.  The exit status is 1 when the baseline fails, a snippet is
ambiguous or missing, or any mutant survives.  pytest does not collect
this file; run it from anywhere as ``python tests/mutants.py``.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

TESTS = ["tests/test_kernel_oracles.py", "tests/test_geometry.py", "tests/test_space_kernels.py"]

#: (name, module under src/finiverse, snippet, its mutant)
MUTANTS = [
    ("Hesse: two-point lines counted as rich", "geometry.py",
     "masks = rich if len(ln) >= 3 else poor", "masks = rich if len(ln) >= 2 else poor"),
    ("Hesse: partner scan starts one position late", "geometry.py",
     "missing = ~rich[x] >> (i + 1)", "missing = ~rich[x] >> (i + 2)"),
    ("Hesse: detail read from the rich mask", "geometry.py",
     "if poor[x] >> j & 1", "if rich[x] >> j & 1"),
    ("lines: base stride q * first", "geometry.py",
     "[:, None] * (q * first)", "[:, None] * (q + first)"),
    ("spread sums: slot tested by // p, not % p", "fields.py",
     "if (total & _SLOT_MASK) % p:", "if (total & _SLOT_MASK) // p:"),
]


def _source(module: str) -> str:
    return (ROOT / "src" / "finiverse" / module).read_text()


def _check_snippets() -> list[str]:
    """One line per snippet that does not occur exactly once."""
    errors = []
    for name, module, snippet, _ in MUTANTS:
        count = _source(module).count(snippet)
        if count != 1:
            errors.append(f"{name}: {snippet!r} occurs {count} times in {module}")
    return errors


def _run(edit=None) -> tuple[int, str]:
    """Copy src/, apply ``edit`` (module, snippet, mutant) if given, run the
    kernel tests on the copy: (pytest exit status, the imported package)."""
    with tempfile.TemporaryDirectory(prefix="finiverse-mutant-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if edit is not None:
            module, snippet, mutant = edit
            path = src / "finiverse" / module
            path.write_text(path.read_text().replace(snippet, mutant))
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import finiverse; print(finiverse.__file__)"],
                               cwd=ROOT, env=env, capture_output=True, text=True)
        imported = where.stdout.strip()
        if not imported.startswith(str(src)):
            return -1, imported or where.stderr.strip()
        tests = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                *TESTS], cwd=ROOT, env=env, capture_output=True, text=True)
        return tests.returncode, imported


def main() -> int:
    errors = _check_snippets()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    status, imported = _run()
    if status != 0:
        print(f"baseline: the unmutated copy fails (status {status}, {imported})", file=sys.stderr)
        return 1
    survivors = []
    for name, module, snippet, mutant in MUTANTS:
        start = time.perf_counter()
        status, imported = _run((module, snippet, mutant))
        if status < 0:
            print(f"{name}: the tests imported {imported}, not the copy", file=sys.stderr)
            return 1
        verdict = "killed" if status else "SURVIVED"
        print(f"{verdict:8} {name} ({time.perf_counter() - start:.1f} s)")
        if not status:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
