"""Mutation gate for the geometry and field kernels (standard library only).

Each mutant is a one-token edit of a named source snippet under
``src/finiverse``.  For each one, ``src/`` is copied to a temporary
directory, the edit is applied there, and the kernel test files run
against the copy; at least one test must fail.  The unmutated copy runs
first and must pass, and must be the package the tests import, so that a
broken suite or a stray install cannot kill every mutant.  A mutant's
run is stopped after ``max(60 s, 5 x the baseline's time)`` and counted
as "killed (timeout)", as mutation tools count a mutant that hangs.

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

TESTS = ["tests/test_kernel_oracles.py", "tests/test_geometry.py", "tests/test_space_kernels.py",
         "tests/test_fields.py", "tests/test_fields_oracles.py", "tests/test_geometry_oracles.py"]

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
    ("packed sums: slot tested by // p, not % p", "fields.py",
     "if (c & self.mask) % self.p:", "if (c & self.mask) // self.p:"),
    ("packed: reduction rows not folded through x^k mod f", "fields.py",
     "(row >> self.high) * base)", "(row >> self.high))"),
    ("packed power: multiplies by the result, not by a", "fields.py",
     "result = reduce(fold(result * a))", "result = reduce(fold(result * result))"),
    ("packed fold: high slots not taken mod p", "fields.py",
     "c += (top & mask) % p * row", "c += (top & mask) * row"),
    ("Rabin: every candidate passes the Frobenius test", "fields.py",
     "return h == x", "return True"),
    ("power: exponent taken mod q, not q - 1", "fields.py",
     "n %= spec.order - 1", "n %= spec.order"),
    ("bulk products: digits taken mod p + 1", "fields.py",
     "da @ stacked % p", "da @ stacked % (p + 1)"),
    ("isotropy: norm c * c without conjugate", "hilbert.py",
     "pack((conjugate(c) * c)._index)", "pack((c * c)._index)"),
    ("isotropy: a newly met norm stored but not added", "hilbert.py",
     "total += new", "total += 0"),
    ("digitwise: place value p + 1, not p", "fields.py",
     "place *= p", "place *= p + 1"),
    ("extended gcd: result not made monic", "fields.py",
     "scale = pow(r0[-1], -1, p)", "scale = 1"),
    ("degenerate scan: the leading one read as zero", "geometry.py",
     "lead = term(1)  # the leading one", "lead = term(0)  # the leading one"),
    ("ordinary line: collinear when n - 2 others share point 0's direction", "geometry.py",
     "bucket[directions[1]] == n - 1", "bucket[directions[1]] == n - 2"),
    ("ordinary line: direction sign not normalised", "geometry.py",
     "g = -g", "g = +g"),
    ("ordinary line: direction not divided by its gcd", "geometry.py",
     "g = math.gcd(dx, dy)", "g = 1 if dx or dy else 0"),
    ("vectors: one coordinate short", "fields.py",
     "product(enumerate_elements(spec), repeat=dim)",
     "product(enumerate_elements(spec), repeat=dim - 1)"),
    ("conjugate: constant digit dropped", "hilbert.py",
     "constant = n % spec.p", "constant = 0"),
    ("modulus search: binomials always skipped", "fields.py",
     "range(0 if binomials else p, p**k)", "range(p, p**k)"),
    ("modulus search: binomials never skipped", "fields.py",
     "range(0 if binomials else p, p**k)", "range(0, p**k)"),
    ("axiom closure: one side only on a non-symmetric table", "fields.py",
     "if not symmetric:", "if False:"),
    ("associativity: a non-symmetric table compared with its transpose", "fields.py",
     "lhs.T if sym else", "lhs.T if True else"),
    ("distributivity: right law skipped when only + commutes", "fields.py",
     "(mul_sym or np", "(add_sym or np"),
    ("rational text: a double underscore read in the numerator", "errors.py",
     r"(?P<num> (?:\d+(?:_\d+)*)? )", r"(?P<num> (?:\d+(?:_+\d+)*)? )"),
    ("str() guard: no limit read as a cap of zero", "errors.py",
     "_str_limit() or n", "_str_limit()"),
]

#: the least time a mutant's tests may run before they count as a kill
MIN_TIMEOUT_S = 60.0


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


def _run(edit=None, timeout=None) -> tuple[int | None, str]:
    """Copy src/, apply ``edit`` (module, snippet, mutant) if given, run the
    kernel tests on the copy: (pytest exit status, the imported package).
    The status is None when the tests run past ``timeout`` seconds."""
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
        try:
            tests = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                    "no:cacheprovider", *TESTS], cwd=ROOT, env=env,
                                   capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, imported
        return tests.returncode, imported


def main() -> int:
    errors = _check_snippets()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    start = time.perf_counter()
    status, imported = _run()
    if status != 0:
        print(f"baseline: the unmutated copy fails (status {status}, {imported})", file=sys.stderr)
        return 1
    baseline = time.perf_counter() - start
    timeout = max(MIN_TIMEOUT_S, 5 * baseline)
    print(f"baseline passed ({baseline:.1f} s); timeout per mutant {timeout:.0f} s")
    survivors = []
    for name, module, snippet, mutant in MUTANTS:
        start = time.perf_counter()
        status, imported = _run((module, snippet, mutant), timeout)
        if status is not None and status < 0:
            print(f"{name}: the tests imported {imported}, not the copy", file=sys.stderr)
            return 1
        verdict = "killed (timeout)" if status is None else "killed" if status else "SURVIVED"
        print(f"{verdict:16} {name} ({time.perf_counter() - start:.1f} s)")
        if status == 0:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
