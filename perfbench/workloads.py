"""Seeded job lists for the four workloads, and the code that runs one job.

A job list is a sequence of *cycles*.  Every cycle of a workload has the
same composition (the same job kinds drawn from the same narrow size
strata), and the seed picks the concrete inputs inside each stratum and
the order of the jobs.  That keeps the cost profile of a run the same from
seed to seed while the inputs change.

Generation uses only the standard library, so the parent process can
rebuild a job list and its hash without importing finiverse.  ``run_job``
and ``summarize`` run in the timed child: ``run_job`` is the timed call
into the library, ``summarize`` turns its result into plain JSON data
after the clock has stopped.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("axioms", "field_sweep", "spaces", "cli_cold")

#: cycles generated per run; a run that finishes all of them starts again
CYCLES = {"axioms": 40, "field_sweep": 64, "spaces": 32, "cli_cold": 4}

#: fewest cycles an untraced run covers, so that the heaviest group of jobs
#: holds at least 11 samples and the tail percentile stays inside it
MIN_CYCLES = {"axioms": 6, "field_sweep": 11, "spaces": 8, "cli_cold": 3}

#: cycles covered by a traced run (fixed, so its counts repeat for a seed)
TRACE_CYCLES = {"axioms": 2, "field_sweep": 6, "spaces": 2, "cli_cold": 1}

#: field_sweep construction bound: the irreducible search tests about
#: p**(k//2) divisors per candidate; for odd k with gcd(k, p-1) = 1 every
#: binomial x**k + c has a root, so about p candidates are rejected first,
#: at about p/2 divisions each.  k = 1 costs two trial-division primality
#: tests of about sqrt(p)/2 steps each instead.
SEARCH_BOUND = 2500
PRIME_FIELD_MAX = 10**12


def search_cost(p: int, k: int) -> int:
    """Estimated trial divisions of make_extension_field(p, k) for k >= 2."""
    cost = p ** (k // 2)
    if k % 2 == 1 and math.gcd(k, p - 1) == 1:
        cost += p * p // 2
    return cost


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (first 12 prime bases)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes(lo: int, hi: int, mod=None) -> list[int]:
    """Primes in [lo, hi], optionally only those with p % m == r for mod=(m, r)."""
    out = [p for p in range(lo, hi + 1) if is_probable_prime(p)]
    if mod is not None:
        m, r = mod
        out = [p for p in out if p % m == r]
    return out


# ---------------------------------------------------------------------------
# axioms: verify_field_axioms and verify_modular_ring_axioms
# ---------------------------------------------------------------------------


def _field_axioms(ctor, p, k=1):
    return {"kind": "field_axioms", "ctor": ctor, "p": p, "k": k}


def _ring_axioms(n):
    return {"kind": "ring_axioms", "n": n}


def _ring_draw(rng, lo, hi):
    """n in [lo, hi], prime or composite with equal odds."""
    want_prime = rng.random() < 0.5
    return rng.choice([n for n in range(lo, hi + 1) if is_probable_prime(n) == want_prime])


def _axioms_cycle(rng):
    # Sorted by cost the cycle reads: four small jobs, the Gaussian field,
    # a middle group of four around the median, two upper jobs, and the
    # heaviest group (GF(13^2) twice) that holds the tail.
    jobs = [
        _field_axioms("prime", rng.choice(primes(61, 101))),
        _field_axioms("prime", rng.choice(primes(61, 101))),
        _ring_axioms(_ring_draw(rng, 100, 130)),
        _ring_axioms(_ring_draw(rng, 100, 130)),
        _field_axioms("gaussian", 11, 2),
        _field_axioms("general", 2, 6),
        _field_axioms("general", 3, 4),
        _field_axioms("prime", rng.choice(primes(127, 137))),
        _ring_axioms(_ring_draw(rng, 139, 149)),
        _field_axioms("general", 11, 2),
        _field_axioms("general", 5, 3),
        _field_axioms("prime", rng.choice(primes(193, 199))),
        _ring_axioms(_ring_draw(rng, 205, 215)),
        _field_axioms("general", 13, 2),
        _field_axioms("general", 13, 2),
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# field_sweep: construct a field, coerce elements, run its operators
# ---------------------------------------------------------------------------

MULS, INVERSES, DIVISIONS, FERMAT, VECTOR_PAIRS = 160, 20, 10, 3, 2

def _near_bound(k, pool):
    return [p for p in pool if search_cost(p, k) <= SEARCH_BOUND]


_SWEEP_STRATA = (
    # (k, prime pool) -- each stratum sits near SEARCH_BOUND or PRIME_FIELD_MAX
    (1, None),  # p drawn from [0.8 * PRIME_FIELD_MAX, PRIME_FIELD_MAX)
    (2, _near_bound(2, primes(1500, 2500))),
    (3, _near_bound(3, primes(1500, 2500, mod=(3, 1)))),
    (3, _near_bound(3, primes(40, 70, mod=(3, 2)))),
    (4, _near_bound(4, primes(43, 50))),
    (5, _near_bound(5, primes(31, 50))),
    (6, _near_bound(6, [11, 13])),
    ("small", [(3, 5), (3, 6), (5, 3), (5, 4), (7, 3), (11, 2), (13, 2)]),
)


def _big_prime(rng):
    while True:
        p = rng.randrange(PRIME_FIELD_MAX * 4 // 5, PRIME_FIELD_MAX) | 1
        if is_probable_prime(p):
            return p


def _field_ops(rng, p, k):
    q = p**k

    def nonzero():
        return rng.randrange(1, q)

    dim = rng.randrange(3, 9)
    return {
        "kind": "field_ops",
        "p": p,
        "k": k,
        "mul": [[rng.randrange(q), rng.randrange(q)] for _ in range(MULS)],
        "inv": [nonzero() for _ in range(INVERSES)],
        "div": [[rng.randrange(q), nonzero()] for _ in range(DIVISIONS)],
        "fermat": [nonzero() for _ in range(FERMAT)],
        "vectors": [
            [[rng.randrange(q) for _ in range(dim)] for _ in range(2)]
            for _ in range(VECTOR_PAIRS)
        ],
    }


def _field_sweep_cycle(rng):
    jobs = []
    for k, pool in _SWEEP_STRATA:
        if k == 1:
            jobs.append(_field_ops(rng, _big_prime(rng), 1))
        elif k == "small":
            jobs.append(_field_ops(rng, *rng.choice(pool)))
        else:
            jobs.append(_field_ops(rng, rng.choice(pool), k))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# spaces: lines/incidence/Hesse, degenerate pairs, isotropic counts,
# ordinary lines
# ---------------------------------------------------------------------------

#: (p, k, dim) of AG(dim, p**k), grouped by cost
_LINE_SPACES = (
    [(5, 1, 2), (7, 1, 2)],
    [(2, 3, 2), (3, 2, 2)],
    [(11, 1, 2), (2, 2, 3), (13, 1, 2)],
    [(3, 1, 4), (5, 1, 3)],
)

#: (p, k, dim) of GF(p**k)**dim inner-product spaces, grouped by cost
_HILBERT_SPACES = (
    [(3, 3, 2), (5, 2, 2), (11, 1, 3)],
    [(7, 1, 4)],
    [(2, 2, 6), (2, 3, 4)],
)

#: the heaviest jobs, once each per cycle; they hold the tail
_TOP = ({"kind": "lines", "p": 2, "k": 4, "dim": 2},
        {"kind": "isotropic", "p": 3, "k": 2, "dim": 4})


def _lines(space):
    p, k, d = space
    return {"kind": "lines", "p": p, "k": k, "dim": d}


def _degenerate(p, d=2):
    return {"kind": "degenerate", "p": p, "dim": d}


def _isotropic(space):
    p, k, d = space
    return {"kind": "isotropic", "p": p, "k": k, "dim": d}


def _grid_points(rng, m):
    """2 x m grid, row by row, under a seeded invertible rational affine map.

    Collinearity is preserved, so the first ordinary pair in scan order is
    (0, m) for every seed: a vertical line of the grid.
    """
    while True:
        a, b, c, d = (rng.randrange(-9, 10) for _ in range(4))
        if a * d - b * c:
            break
    den = rng.randrange(1, 8)
    e, f = rng.randrange(-50, 51), rng.randrange(-50, 51)
    pts = []
    for y in (0, 1):
        for x in range(m):
            pts.append([a * x + b * y + e, den, c * x + d * y + f, den])
    return pts


def _random_points(rng, n):
    seen, pts = set(), []
    while len(pts) < n:
        pt = (rng.randrange(-1000, 1001), rng.randrange(1, 50),
              rng.randrange(-1000, 1001), rng.randrange(1, 50))
        key = (pt[0] * 10**6 // pt[1], pt[0] % pt[1], pt[2] * 10**6 // pt[3], pt[2] % pt[3])
        if key in seen:
            continue
        seen.add(key)
        pts.append(list(pt))
    return pts


def _ordinary(points, shape):
    return {"kind": "ordinary", "shape": shape, "points": points}


def _spaces_cycle(rng):
    # Sorted by cost, the cycle's middle (its median) is a dense group of
    # jobs near 100 ms: the smaller no-hit scan, the two grids, GF(7)^4 and
    # the middle lines job.
    jobs = [dict(job) for job in _TOP]
    jobs += [_lines(rng.choice(group)) for group in _LINE_SPACES]
    jobs += [_isotropic(rng.choice(group)) for group in _HILBERT_SPACES]
    jobs += [_degenerate(rng.choice(primes(29, 101, mod=(4, 1)))) for _ in range(2)]
    jobs.append(_degenerate(rng.choice(primes(59, 67, mod=(4, 3)))))
    jobs.append(_degenerate(rng.choice(primes(79, 83, mod=(4, 3)))))
    jobs += [_ordinary(_grid_points(rng, rng.randrange(48, 53)), "grid") for _ in range(2)]
    jobs += [_ordinary(_random_points(rng, rng.randrange(80, 121)), "random") for _ in range(2)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m finiverse` process per command
# ---------------------------------------------------------------------------

_RHO0 = "6.0083103026895395e-27"
_T_END = 5.455840416463666e17

#: the 12 README commands, one command for every other action, one usage
#: error, and `cosmo evolve` at 2k, 8k and 20k RK4 steps for vacuum and dust
CLI_COMMANDS = (
    ["field", "table", "--p", "2", "--k", "2"],
    ["field", "gaussian", "--p", "5"],
    ["field", "axioms", "--ring", "6"],
    ["geometry", "degenerate", "--q", "5"],
    ["geometry", "hesse", "--q", "3"],
    ["geometry", "ordinary-line", "--points", "0,0;1,0;2,0;0,1;1,1;2,1"],
    ["hilbert", "norm", "--p", "2", "--k", "2", "--vector", "1:0,1:0"],
    ["regularize", "zeta", "--s", "1", "--format", "json"],
    ["regularize", "vacuum", "--l", "1e-15"],
    ["cosmo", "point-count"],
    ["cosmo", "growth", "--dt-gyr", "6"],
    ["cosmo", "evolve", "--eos", "vacuum", "--rho0", _RHO0,
     "--t-end", "5.455840416463666e17", "--step", "2.727920208231833e14"],
    ["field", "inverse", "--p", "3", "--k", "2", "--element", "1:1", "--format", "json"],
    ["geometry", "lines", "--q", "4", "--format", "json"],
    ["geometry", "cardinality", "--order", "9", "--dim", "3"],
    ["geometry", "diameter", "--step", "1e-15", "--order", "7"],
    ["hilbert", "cardinality", "--p", "3", "--k", "2", "--dim", "4"],
    ["hilbert", "inner", "--p", "3", "--k", "2", "--u", "1:1,0:1", "--v", "2:0,1:1",
     "--format", "json"],
    ["regularize", "bernoulli", "--n", "12", "--format", "json"],
    ["regularize", "partial-sum", "--n", "1000"],
    ["regularize", "mode-energy", "--m0", "1e-30", "--kx", "1e6", "--ky", "2e6", "--kz", "3e6"],
    ["regularize", "oscillator-energy", "--l", "1e-15", "--count", "1e40"],
    ["regularize", "point-bound", "--k", "100", "--format", "json"],
    ["cosmo", "lambda", "--format", "json"],
    ["cosmo", "rate"],
    ["cosmo", "density"],
    ["cosmo", "min-diameter", "--format", "json"],
    ["cosmo", "planck-density"],
    ["cosmo", "diameter-at", "--dt", "3.15576e16"],
    ["cosmo", "count-at", "--dt", "3.15576e16", "--format", "json"],
    ["cosmo", "accel"],
    ["geometry", "hesse", "--q", "3", "--no-such-flag"],
) + tuple(
    ["cosmo", "evolve", "--eos", eos, "--rho0", _RHO0, "--t-end", repr(_T_END),
     "--step", repr(_T_END / steps), "--format", "json"]
    for eos in ("vacuum", "dust")
    for steps in (2000, 8000, 20000)
)


def _cli_cycle(rng):
    jobs = [{"kind": "cli", "argv": list(argv)} for argv in CLI_COMMANDS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

_CYCLE_MAKERS = {
    "axioms": _axioms_cycle,
    "field_sweep": _field_sweep_cycle,
    "spaces": _spaces_cycle,
    "cli_cold": _cli_cycle,
}


def job_list(workload: str, seed: int) -> list[list[dict]]:
    """The workload's cycles of jobs; a function of (workload, seed) alone."""
    if workload not in _CYCLE_MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"finiverse-bench:{workload}:{seed}")
    return [_CYCLE_MAKERS[workload](rng) for _ in range(CYCLES[workload])]


def job_hash(cycles: list[list[dict]]) -> str:
    blob = json.dumps(cycles, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# running one in-process job (child side; imports finiverse lazily)
# ---------------------------------------------------------------------------


def _spec(fields, p, k, ctor="general"):
    if ctor == "prime":
        return fields.make_prime_field(p)
    if ctor == "gaussian":
        return fields.make_gaussian_extension(p)
    return fields.make_extension_field(p, k)


def run_job(job: dict):
    """The timed part of a job: calls into the library, returns raw results."""
    from finiverse import fields, geometry, hilbert

    kind = job["kind"]
    if kind == "field_axioms":
        spec = _spec(fields, job["p"], job["k"], job["ctor"])
        return spec, fields.verify_field_axioms(spec)
    if kind == "ring_axioms":
        return None, fields.verify_modular_ring_axioms(job["n"])
    if kind == "field_ops":
        spec = fields.make_extension_field(job["p"], job["k"])
        el = spec.element
        muls = [el(a) * el(b) for a, b in job["mul"]]
        invs = [el(a).inverse() for a in job["inv"]]
        divs = [el(a) / el(b) for a, b in job["div"]]
        q1 = spec.order - 1
        ferm = [el(a) ** q1 for a in job["fermat"]]
        space = hilbert.FiniteHilbertSpace(spec, len(job["vectors"][0][0]))
        forms = []
        for u, v in job["vectors"]:
            u, v = space.vector(u), space.vector(v)
            forms.append((hilbert.inner_product(u, v), hilbert.is_isotropic(u)))
        return spec, (muls, invs, divs, ferm, forms)
    if kind == "lines":
        space = geometry.AffineSpace(fields.make_extension_field(job["p"], job["k"]), job["dim"])
        lines = geometry.enumerate_lines(space)
        structure = geometry.incidence_structure(space)
        return space, (lines, structure, geometry.check_hesse_property(structure))
    if kind == "degenerate":
        space = geometry.AffineSpace(fields.make_prime_field(job["p"]), job["dim"])
        return space, geometry.find_degenerate_pair(space)
    if kind == "isotropic":
        space = hilbert.FiniteHilbertSpace(fields.make_extension_field(job["p"], job["k"]), job["dim"])
        vectors = hilbert.enumerate_vectors(space)
        return space, sum(1 for v in vectors if hilbert.is_isotropic(v))
    if kind == "ordinary":
        from fractions import Fraction

        pts = [geometry.RationalPoint(Fraction(xn, xd), Fraction(yn, yd))
               for xn, xd, yn, yd in job["points"]]
        return None, geometry.find_ordinary_line(pts)
    raise ValueError(f"unknown job kind {kind!r}")


def _coeffs(e):
    return list(e.coeffs)


def _frac(x):
    return [x.numerator, x.denominator]


def summarize(job: dict, raw) -> dict:
    """Plain-data view of a job's result, for the oracles (not timed)."""
    kind = job["kind"]
    ctx, res = raw
    if kind in ("field_axioms", "ring_axioms"):
        out = {
            "order": res.order,
            "checks": {name: [c.passed, None if c.witness is None else list(c.witness)]
                       for name, c in res.checks.items()},
        }
        if ctx is not None:
            out["modulus"] = list(ctx.modulus_poly)
        return out
    if kind == "field_ops":
        muls, invs, divs, ferm, forms = res
        return {
            "modulus": list(ctx.modulus_poly),
            "mul": [_coeffs(e) for e in muls],
            "inv": [_coeffs(e) for e in invs],
            "div": [_coeffs(e) for e in divs],
            "fermat": [_coeffs(e) for e in ferm],
            "forms": [[_coeffs(f), iso] for f, iso in forms],
        }
    if kind == "lines":
        lines, structure, hesse = res
        return {
            "modulus": list(ctx.spec.modulus_poly),
            "lines": len(lines),
            "line_sizes": sorted({len(ln) for ln in lines}),
            "incidence": sorted(sorted(ln) for ln in structure.lines),
            "hesse": [hesse.holds, None if hesse.witness is None else list(hesse.witness),
                      hesse.detail],
        }
    if kind == "degenerate":
        if res is None:
            return {"points": ctx.point_count, "pair": None}
        x, y = res
        return {"points": ctx.point_count,
                "pair": [[c.coeffs[0] for c in x.coords], [c.coeffs[0] for c in y.coords]]}
    if kind == "isotropic":
        return {"modulus": list(ctx.spec.modulus_poly), "vectors": ctx.cardinality,
                "isotropic": res}
    if kind == "ordinary":
        return {"status": res.status,
                "pair": None if res.pair is None else list(res.pair),
                "line": None if res.line is None else [_frac(c) for c in res.line]}
    raise ValueError(f"unknown job kind {kind!r}")
