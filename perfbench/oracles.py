"""Independent checks of every job's output, run in the parent after timing.

Nothing here imports finiverse.  Field arithmetic comes from sympy's
``galoistools``; geometry is recomputed with plain integers and
``Fraction``; Z/n witnesses come from ``math.gcd``; CLI output is compared
byte for byte with goldens captured at commit fc12f79.

Each ``check_<kind>(job, out)`` returns None when the output is right and a
short reason when it is not.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from functools import lru_cache
from itertools import product

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem, gf_strip

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_goldens.json")


# ---------------------------------------------------------------------------
# GF(p^k) through galoistools (dense lists, highest degree first)
# ---------------------------------------------------------------------------


def _digits(n: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def _to_gf(coeffs) -> list[int]:
    return gf_strip([int(c) for c in reversed(coeffs)])


def _from_gf(poly, k: int) -> list[int]:
    coeffs = list(reversed(poly))
    return coeffs + [0] * (k - len(coeffs))


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k, constant term first, in the
    order the library documents (lower coefficients read as a base-p
    numeral, constant term least significant)."""
    if k == 1:
        return (0, 1)
    for idx in range(p**k):
        candidate = _digits(idx, p, k) + [1]
        if gf_irreducible_p(_to_gf(candidate), p, ZZ):
            return tuple(candidate)
    raise ValueError(f"no irreducible of degree {k} over GF({p})")


class Field:
    def __init__(self, p: int, k: int, modulus):
        self.p, self.k = p, k
        self.mod = _to_gf(modulus)

    def element(self, value) -> list[int]:
        if self.k == 1:
            return [value % self.p]
        return _digits(value, self.p, self.k)

    def mul(self, a, b) -> list[int]:
        prod = gf_rem(gf_mul(_to_gf(a), _to_gf(b), self.p, ZZ), self.mod, self.p, ZZ)
        return _from_gf(prod, self.k)

    def add(self, a, b) -> list[int]:
        return [(x + y) % self.p for x, y in zip(a, b)]

    def conj(self, a) -> list[int]:
        """The documented conjugation: negate every non-constant coefficient."""
        return [a[0]] + [(-c) % self.p for c in a[1:]]

    def form(self, u, v) -> list[int]:
        total = [0] * self.k
        for a, b in zip(u, v):
            total = self.add(total, self.mul(self.conj(a), b))
        return total


def _modulus_reason(job, out):
    expected = list(smallest_irreducible(job["p"], job["k"]))
    if out["modulus"] != expected:
        return f"modulus {out['modulus']} is not the smallest irreducible {expected}"
    return None


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------


def check_field_axioms(job, out):
    p, k, ctor = job["p"], job["k"], job["ctor"]
    if ctor == "gaussian":
        if p % 4 != 3 or not gf_irreducible_p([1, 0, 1], p, ZZ):
            return "the Gaussian job is not over a field"
        if out["modulus"] != [1, 0, 1]:
            return f"Gaussian modulus {out['modulus']} is not x^2+1"
    elif ctor == "prime":
        if out["modulus"] != [0, 1]:
            return f"prime-field modulus {out['modulus']} is not x"
    else:
        reason = _modulus_reason(job, out)
        if reason:
            return reason
    if out["order"] != p**k:
        return f"order {out['order']} != {p}^{k}"
    failing = [name for name, (ok, _) in out["checks"].items() if not ok]
    if failing:
        return f"field reported failing axioms {failing}"
    return None


def check_ring_axioms(job, out):
    n = job["n"]
    non_units = [r for r in range(1, n) if math.gcd(r, n) > 1]
    failing = {name: witness for name, (ok, witness) in out["checks"].items() if not ok}
    if not non_units:
        return None if not failing else f"Z/{n} is a field but {sorted(failing)} failed"
    if list(failing) != ["inverses"]:
        return f"Z/{n}: expected only 'inverses' to fail, got {sorted(failing)}"
    if failing["inverses"] != [str(non_units[0]), "multiplicative"]:
        return f"Z/{n}: witness {failing['inverses']} is not the smallest non-unit {non_units[0]}"
    return None


def check_field_ops(job, out):
    p, k = job["p"], job["k"]
    reason = _modulus_reason(job, out)
    if reason:
        return reason
    f = Field(p, k, out["modulus"])
    one = f.element(1)
    for (a, b), got in zip(job["mul"], out["mul"]):
        if f.mul(f.element(a), f.element(b)) != got:
            return f"product {a}*{b} wrong"
    for a, got in zip(job["inv"], out["inv"]):
        if f.mul(f.element(a), got) != one:
            return f"inverse of {a} wrong"
    for (a, b), got in zip(job["div"], out["div"]):
        if f.mul(got, f.element(b)) != f.element(a):
            return f"quotient {a}/{b} wrong"
    if any(got != one for got in out["fermat"]):
        return "a^(q-1) != 1"
    for (u, v), (got, iso) in zip(job["vectors"], out["forms"]):
        u = [f.element(x) for x in u]
        v = [f.element(x) for x in v]
        if f.form(u, v) != got:
            return "inner product disagrees with the documented form"
        nonzero = any(any(c) for c in u)
        if iso != (nonzero and not any(f.form(u, u))):
            return "is_isotropic disagrees with the documented form"
    counts = (len(job["mul"]), len(job["inv"]), len(job["div"]), len(job["vectors"]))
    if counts != (len(out["mul"]), len(out["inv"]), len(out["div"]), len(out["forms"])):
        return "missing results"
    return None


def check_lines(job, out):
    q, d = job["p"] ** job["k"], job["dim"]
    reason = _modulus_reason(job, out)
    if reason:
        return reason
    n_points = q**d
    n_lines = q ** (d - 1) * (q**d - 1) // (q - 1)
    if out["lines"] != n_lines or len(out["incidence"]) != n_lines:
        return f"{out['lines']} lines, expected q^(d-1)(q^d-1)/(q-1) = {n_lines}"
    if out["line_sizes"] != [q] or any(len(ln) != q for ln in out["incidence"]):
        return f"line sizes {out['line_sizes']}, expected {q} points per line"
    degree = [0] * n_points
    covered = set()
    for ln in out["incidence"]:
        for a in ln:
            degree[a] += 1
        for i, a in enumerate(ln):
            for b in ln[i + 1:]:
                if (a, b) in covered:
                    return f"points {a},{b} lie on two lines"
                covered.add((a, b))
    if set(degree) != {(q**d - 1) // (q - 1)}:
        return "a point is not on (q^d-1)/(q-1) lines"
    if len(covered) != n_points * (n_points - 1) // 2:
        return "some pair of points lies on no line"
    holds = out["hesse"][0]
    if holds != (q >= 3):
        return f"Hesse property reported {holds} for q = {q}"
    return None


def check_degenerate(job, out):
    p, d = job["p"], job["dim"]
    if out["points"] != p**d:
        return f"{out['points']} points, expected {p ** d}"
    expected = None
    for y in product(range(p), repeat=d):  # first coordinate slowest
        if any(y) and sum(c * c for c in y) % p == 0:
            expected = [[0] * d, list(y)]
            break
    if out["pair"] != expected:
        return f"degenerate pair {out['pair']}, expected {expected}"
    if expected is not None:
        x, y = out["pair"]
        if sum((a - b) ** 2 for a, b in zip(x, y)) % p:
            return "returned pair has nonzero squared distance"
    return None


@lru_cache(maxsize=None)
def _isotropic_count(p: int, k: int, d: int) -> int:
    f = Field(p, k, smallest_irreducible(p, k))
    elems = [tuple(f.element(i)) for i in range(p**k)]
    index = {e: i for i, e in enumerate(elems)}
    norm = [index[tuple(f.mul(f.conj(list(e)), list(e)))] for e in elems]
    add = [[index[tuple(f.add(list(a), list(b)))] for b in elems] for a in elems]
    sums = {0: 1}  # distribution of partial sums of norms over all vectors
    for _ in range(d):
        nxt: dict[int, int] = {}
        for s, count in sums.items():
            for e in range(len(elems)):
                t = add[s][norm[e]]
                nxt[t] = nxt.get(t, 0) + count
        sums = nxt
    return sums.get(0, 0) - 1  # minus the zero vector


def check_isotropic(job, out):
    p, k, d = job["p"], job["k"], job["dim"]
    reason = _modulus_reason(job, out)
    if reason:
        return reason
    if out["vectors"] != p ** (k * d):
        return f"{out['vectors']} vectors, expected {p ** (k * d)}"
    expected = _isotropic_count(p, k, d)
    if out["isotropic"] != expected:
        return f"{out['isotropic']} isotropic vectors, expected {expected}"
    return None


def _points(job):
    return [(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in job["points"]]


def _on_line(pts, i, j):
    (xi, yi), (xj, yj) = pts[i], pts[j]
    return [k for k, (x, y) in enumerate(pts) if (xj - xi) * (y - yi) == (yj - yi) * (x - xi)]


def check_ordinary(job, out):
    pts = _points(job)
    if out["status"] != "ordinary" or out["pair"] is None:
        return f"status {out['status']} for a non-collinear set"
    i, j = out["pair"]
    a, b, c = (Fraction(n, d) for n, d in out["line"])
    on = [k for k, (x, y) in enumerate(pts) if a * x + b * y + c == 0]
    if on != [i, j]:
        return f"line through {on}, expected exactly the pair {[i, j]}"
    for i0 in range(i + 1):  # no earlier pair in scan order is ordinary
        for j0 in range(i0 + 1, j if i0 == i else len(pts)):
            if len(_on_line(pts, i0, j0)) == 2:
                return f"pair {[i0, j0]} is ordinary and comes first"
    return None


@lru_cache(maxsize=1)
def goldens() -> dict:
    with open(GOLDENS) as fh:
        return {json.dumps(g["argv"]): g for g in json.load(fh)}


def check_cli(job, out):
    golden = goldens().get(json.dumps(job["argv"]))
    if golden is None:
        return "no golden for this command"
    if out["exit"] != golden["exit"]:
        return f"exit code {out['exit']}, golden {golden['exit']}"
    if out["stdout"] != golden["stdout"]:
        return "stdout differs from the golden"
    return None


CHECKS = {
    "field_axioms": check_field_axioms,
    "ring_axioms": check_ring_axioms,
    "field_ops": check_field_ops,
    "lines": check_lines,
    "degenerate": check_degenerate,
    "isotropic": check_isotropic,
    "ordinary": check_ordinary,
    "cli": check_cli,
}


def check(job: dict, out: dict):
    return CHECKS[job["kind"]](job, out)


def pairs_scanned(n: int, pair) -> int:
    """Pairs find_ordinary_line tries up to and including ``pair`` (i < j)."""
    i, j = pair
    return sum(n - 1 - r for r in range(i)) + (j - i)


def degenerate_scanned(job, out) -> int:
    """Points compared with the origin before the scan stopped."""
    if out["pair"] is None:
        return out["points"] - 1
    index = 0
    for c in out["pair"][1]:  # first coordinate most significant
        index = index * job["p"] + c
    return index
