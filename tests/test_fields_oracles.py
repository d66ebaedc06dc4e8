"""Field arithmetic, irreducibility and primality against sympy, the
exhaustive reference in ``field_reference`` and Hypothesis field laws.

These oracles need the test extras (``pip install -e .[test]``); without
sympy or Hypothesis the module is skipped, not the rest of the suite.
"""

import random

import numpy as np

import field_reference as ref
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy import isprime  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import (  # noqa: E402
    gf_gcdex, gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem)

from finiverse import fields as fields_mod  # noqa: E402
from finiverse.fields import _is_prime, enumerate_elements, make_extension_field  # noqa: E402


def _sympy_poly(coeffs):
    """finiverse coefficients (constant first) -> galoistools (leading first)."""
    out = [ZZ(c) for c in reversed(coeffs)]
    while out and out[0] == 0:
        out.pop(0)
    return out


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (5, 3), (11, 2), (13, 2), (7, 3)])
def test_products_and_inverses_match_sympy(p, k):
    spec = make_extension_field(p, k)
    elements = enumerate_elements(spec)
    modulus = _sympy_poly(spec.modulus_poly)
    q = spec.order
    for i in range(1, q, max(1, q // 40)):
        a = elements[i]
        for j in (0, 1, p, q - 1, (7 * i + 3) % q):
            b = elements[j]
            expected = gf_rem(gf_mul(_sympy_poly(a.coeffs), _sympy_poly(b.coeffs), p, ZZ),
                              modulus, p, ZZ)
            assert _sympy_poly((a * b).coeffs) == expected
        product = gf_mul(_sympy_poly(a.coeffs), _sympy_poly(a.inverse().coeffs), p, ZZ)
        assert gf_rem(product, modulus, p, ZZ) == [ZZ(1)]


# -- the packed kernel of extension fields -------------------------------------

#: (p, k) at the edges of the benchmark's field_sweep strata: k = 2
#: and 3 with p near 2500, k = 3 with p in 40..70 (both residues mod 3, so
#: both shapes of modulus), k = 4, 5 and 6 at the ends of their prime pools,
#: and p = 2 for every k
KERNEL_FIELDS = [(2477, 2), (2503, 2), (2437, 3), (2557, 3), (41, 3), (59, 3), (61, 3), (67, 3),
                 (43, 4), (47, 4), (31, 5), (47, 5), (11, 6), (13, 6)]
KERNEL_FIELDS += [(2, k) for k in range(2, 7)]

def _field(p, k):
    spec = make_extension_field(p, k)
    return spec, spec.order, spec.modulus_poly, _sympy_poly(spec.modulus_poly)


def _sympy_product(a, b, modulus, p):
    return gf_rem(gf_mul(_sympy_poly(a), _sympy_poly(b), p, ZZ), modulus, p, ZZ)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_packed_products_match_sympy_and_reference(p, k):
    spec, q, f, modulus = _field(p, k)
    rng = random.Random(q)
    pairs = [(q - 1, q - 1), (q - 1, p), (p ** (k - 1), p ** (k - 1)), (q - 1, 0), (1, q - 1)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(150)]
    for i, j in pairs:
        a, b = spec.element(i), spec.element(j)
        got = (a * b).coeffs
        assert _sympy_poly(got) == _sympy_product(a.coeffs, b.coeffs, modulus, p), (i, j)
        assert got == ref.mul(a.coeffs, b.coeffs, f, p), (i, j)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 43, 47, 61, 251, 2437, 65521])
@pytest.mark.parametrize("k", range(2, 7))
def test_every_coefficient_top_is_the_worst_case(p, k):
    # every coefficient p - 1 makes each product slot the largest sum the
    # slot width must hold; squares, cubes and the products with x^(k-1)
    # fill the high slots that fold back through the modulus's rows
    spec, q, f, modulus = _field(p, k)
    top = spec.element(q - 1)
    for other in (top, top * top, spec.element(p ** (k - 1)), spec.element(q - p)):
        assert _sympy_poly((top * other).coeffs) == _sympy_product(top.coeffs, other.coeffs,
                                                                   modulus, p)
    for n in (2, 3, p, 10**30):
        assert (top ** n).coeffs == ref.power(top.coeffs, n, f, p)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_reduction_rows_are_the_reference_powers_of_x(p, k):
    # Rabin's test builds the kernel of every candidate, reducible ones
    # too: the factory's modulus, the all-(p-1) top case and random monic f
    x = (0, 1) + (0,) * (k - 2)
    rng = random.Random(p * k)
    candidates = [make_extension_field(p, k).modulus_poly, (p - 1,) * k + (1,)]
    candidates += [tuple(rng.randrange(p) for _ in range(k)) + (1,) for _ in range(20)]
    for f in candidates:
        packed = fields_mod._Packed(p, f)
        expected = [packed.pack(ref.index(ref.power(x, k + j, f, p), p)) for j in range(k - 1)]
        assert packed.rows == tuple(expected), f


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_packed_powers_match_sympy_and_reference(p, k):
    spec, q, f, modulus = _field(p, k)
    rng = random.Random(-q)
    for i in [1, p, q - 1] + [rng.randrange(1, q) for _ in range(4)]:
        a = spec.element(i)
        # the identity, one, the inverse, just below, at and above q - 1, far beyond
        for n in (0, 1, -1, q - 2, q - 1, q, 10**30):
            e = q - 2 if n == -1 else n  # a^-1 = a^(q-2)
            got = (a ** n).coeffs
            assert _sympy_poly(got) == gf_pow_mod(_sympy_poly(a.coeffs), e, modulus, p, ZZ), (i, n)
            assert got == ref.power(a.coeffs, e, f, p), (i, n)
    assert (spec.zero ** 0).coeffs == spec.one.coeffs and spec.zero ** q == spec.zero


@pytest.mark.parametrize("p,k", KERNEL_FIELDS + [(3, 4)])
def test_inverses_match_sympy_and_reference(p, k):
    # every inverse of GF(3^4) and of GF(2^k) up to GF(2^6), a sample of the others
    spec, q, f, modulus = _field(p, k)
    picks = range(1, q) if q <= 81 else [1, p, q - 1] + random.Random(q).sample(range(1, q), 60)
    for i in picks:
        a = spec.element(i)
        inverse = a.inverse()
        s, _, g = gf_gcdex(_sympy_poly(a.coeffs), modulus, p, ZZ)
        assert g == [ZZ(1)] and _sympy_poly(inverse.coeffs) == s, i
        assert inverse.coeffs == ref.power(a.coeffs, q - 2, f, p), i
        assert (a * inverse) == spec.one and a ** -1 == inverse


SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 31, 53) for k in range(1, 7) if p**k <= 3000]


@settings(max_examples=60, deadline=None)
@given(pk=st.sampled_from(SMALL_FIELDS), data=st.data())
def test_field_laws_over_random_fields(pk, data):
    spec = make_extension_field(*pk)
    elements = enumerate_elements(spec)
    pick = st.integers(0, spec.order - 1)
    a, b, c = (elements[data.draw(pick)] for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero:
        assert a * a.inverse() == spec.one


def _digit_sum(a, b, sign, p, k):
    """Reference index of a + sign*b, one coefficient at a time."""
    db = ref.digits(b, p, k)
    return ref.index(ref.add(ref.digits(a, p, k), db if sign > 0 else ref.neg(db, p), p), p)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 8), sign=st.sampled_from((1, -1)), data=st.data())
def test_characteristic_two_digitwise_is_the_digit_loop(k, sign, data):
    # in characteristic 2 _digitwise is the bitwise XOR, on ints and on the
    # numpy index arrays operation_tables passes it
    index = st.integers(0, 2**k - 1)
    a, b = data.draw(index), data.draw(index)
    assert fields_mod._digitwise(a, b, sign, 2, k) == _digit_sum(a, b, sign, 2, k)
    xs = data.draw(st.lists(index, min_size=1, max_size=20))
    ys = data.draw(st.lists(index, min_size=len(xs), max_size=len(xs)))
    got = fields_mod._digitwise(np.array(xs)[:, None], np.array(ys)[None, :], sign, 2, k)
    assert got.tolist() == [[_digit_sum(x, y, sign, 2, k) for y in ys] for x in xs]


#: most monic candidates of one degree tested against both oracles
CANDIDATE_CAP = 500


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", range(1, 7))
def test_rabin_matches_trial_division_and_sympy(p, k):
    # every candidate while there are at most CANDIDATE_CAP, else a seeded sample
    n = p**k
    picks = range(n) if n <= CANDIDATE_CAP else random.Random(n).sample(range(n), CANDIDATE_CAP)
    found = 0
    for i in picks:
        poly = ref.digits(i, p, k) + (1,)
        expected = ref.is_irreducible(poly, p)
        assert fields_mod._is_irreducible(poly, p) == expected, poly
        assert gf_irreducible_p(_sympy_poly(poly), p, ZZ) == expected, poly
        found += expected
    assert 0 < found < len(picks) or k == 1


@pytest.mark.parametrize(
    "p,k", [(2, 6), (3, 5), (5, 4), (7, 3), (13, 4), (31, 6), (47, 4), (101, 4), (251, 2)]
)
def test_extension_modulus_is_the_reference_smallest_irreducible(p, k):
    assert make_extension_field(p, k).modulus_poly == ref.smallest_irreducible(p, k)


def test_extension_modulus_is_sympys_first_irreducible():
    # every p < 100 and k = 2..6; 63 of the 125 pairs have no irreducible
    # binomial x^k + c, so their search starts past the first p candidates
    skipped = 0
    for p in filter(isprime, range(100)):
        for k in range(2, 7):
            first = next(i for i in range(p**k)
                         if gf_irreducible_p(_sympy_poly(ref.digits(i, p, k) + (1,)), p, ZZ))
            assert make_extension_field(p, k).modulus_poly == ref.digits(first, p, k) + (1,)
            skipped += first >= p
    assert skipped == 63


def test_is_prime_matches_sympy():
    windows = (range(20000), range(10**12 - 1000, 10**12 + 2000),
               range(10**18 - 1000, 10**18 + 2000))
    for window in windows:
        assert [n for n in window if _is_prime(n)] == [n for n in window if isprime(n)]


# -- the axiom battery against the O(q^3) reference ---------------------------

#: every field (p, k) and ring Z/n of order <= 50 the field tests build; the
#: Gaussian GF(3)[i] and GF(7)[i] share the tables of GF(3^2) and GF(7^2),
#: whose smallest irreducible is x^2 + 1
BATTERY_FIELDS = [(p, 1) for p in (2, 3, 5, 7, 11, 13, 31)] + [
    (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]
BATTERY_NAMES = [f"GF({p}^{k})" for p, k in BATTERY_FIELDS] + [f"Z/{n}" for n in (2, 4, 6, 7)]


def _structure(name):
    """(labels, add_t, mul_t, zero, one) as nested lists, built without the library."""
    if name.startswith("Z/"):
        n = int(name[2:])
        return ([str(i) for i in range(n)],
                [[(i + j) % n for j in range(n)] for i in range(n)],
                [[(i * j) % n for j in range(n)] for i in range(n)], 0, 1)
    p, k = (int(x) for x in name[3:-1].split("^"))
    add_t, mul_t = ref.tables(p, k, ref.smallest_irreducible(p, k))
    return [str(i) for i in range(p**k)], add_t, mul_t, 0, 1


def _relabeled(structure, rng):
    """The same structure with its elements renumbered by a random permutation."""
    labels, add_t, mul_t, zero, one = structure
    q = len(labels)
    perm = list(range(q))
    rng.shuffle(perm)
    new_labels = [None] * q
    for i in range(q):
        new_labels[perm[i]] = labels[i]

    def move(t):
        out = [[0] * q for _ in range(q)]
        for i in range(q):
            for j in range(q):
                out[perm[i]][perm[j]] = perm[t[i][j]]
        return out

    return new_labels, move(add_t), move(mul_t), perm[zero], perm[one]


def _corrupted(structure, rng, diagonal):
    """One entry of one table changed; a diagonal entry keeps commutativity."""
    labels, add_t, mul_t, zero, one = structure
    q = len(labels)
    tables = [[row[:] for row in add_t], [row[:] for row in mul_t]]
    t = tables[rng.randrange(2)]
    i = rng.randrange(q)
    j = i if diagonal else rng.randrange(q)
    t[i][j] = rng.choice([v for v in range(q) if v != t[i][j]])
    return labels, tables[0], tables[1], zero, one


def _variants(name):
    """The structure, two relabelings of it and seeded corruptions of each."""
    rng = random.Random(name)
    base = _structure(name)
    out = [base, _relabeled(base, rng), _relabeled(base, rng)]
    for s in list(out):
        out += [_corrupted(s, rng, diagonal=d % 2 == 0) for d in range(6 if s is base else 2)]
    return out


def _library_report(labels, add_t, mul_t, zero, one):
    checks = fields_mod._check_tables(labels.__getitem__, np.array(add_t), np.array(mul_t),
                                      zero=zero, one=one)
    return {name: (c.passed, c.witness) for name, c in checks.items()}


@pytest.mark.parametrize("name", BATTERY_NAMES)
def test_axiom_battery_matches_reference(name):
    for i, structure in enumerate(_variants(name)):
        expected = ref.check_tables(*structure)
        assert _library_report(*structure) == expected
        if i < 3:  # the structure and its relabelings: only Z/4 and Z/6 are not fields
            assert all(passed for passed, _ in expected.values()) == (name not in ("Z/4", "Z/6"))


def _closure(table, seeds):
    """The submagma generated by ``seeds``, by a worklist over plain lists."""
    members, todo = set(seeds), list(seeds)
    while todo:
        x = todo.pop()
        for y in list(members):
            for z in (table[x][y], table[y][x]):
                if z not in members:
                    members.add(z)
                    todo.append(z)
    return members


@pytest.mark.parametrize("name", BATTERY_NAMES)
def test_generators_are_greedy_and_generate(name):
    # the battery's candidate order: every index ascending, then the
    # identity candidates, zero last for + and one then zero last for *;
    # on a symmetric table the one-sided closure finds the same list
    symmetric = 0
    for _, add_t, mul_t, zero, one in _variants(name):
        for table, last in ((add_t, (zero,)), (mul_t, (one, zero))):
            gens = fields_mod._generators(np.array(table), last)
            q = len(table)
            order = [i for i in range(q) if i not in last] + list(last)
            assert _closure(table, gens) == set(range(q))
            for i, g in enumerate(gens):
                outside = set(range(q)) - _closure(table, gens[:i])
                assert g == next(c for c in order if c in outside)
            if all(table[i][j] == table[j][i] for i in range(q) for j in range(q)):
                assert fields_mod._generators(np.array(table), last, symmetric=True) == gens
                symmetric += 1
    assert symmetric >= 2 * 3  # both tables of the structure and its relabelings


#: generators of (M, +) and (M, *) in plain index order and identities last
GENERATOR_COUNTS = {"GF(13^2)": (3, 2, 5, 4), "GF(199^1)": (2, 1, 4, 3), "Z/211": (2, 1, 3, 2)}


@pytest.mark.parametrize("name", GENERATOR_COUNTS)
def test_identities_last_saves_generators(name):
    _, add_t, mul_t, zero, one = _structure(name)
    add_t, mul_t = np.array(add_t), np.array(mul_t)
    assert (len(fields_mod._generators(add_t)), len(fields_mod._generators(add_t, (zero,))),
            len(fields_mod._generators(mul_t)),
            len(fields_mod._generators(mul_t, (one, zero)))) == GENERATOR_COUNTS[name]


def _counted_report(structure):
    """The library's report, with the indices its label function was asked for."""
    labels, add_t, mul_t, zero, one = structure
    asked = []

    def label(i):
        asked.append(i)
        return labels[i]

    checks = fields_mod._check_tables(label, np.array(add_t), np.array(mul_t), zero=zero, one=one)
    return {name: (c.passed, c.witness) for name, c in checks.items()}, asked


@pytest.mark.parametrize("name", ["GF(13^2)", "Z/211"])
def test_a_passing_battery_renders_no_label(name):
    report, asked = _counted_report(_structure(name))
    assert all(passed for passed, _ in report.values())
    assert asked == []


def test_a_failing_battery_renders_only_its_witnesses():
    rng = random.Random("labels")
    base = _structure("GF(3^2)")
    structures = [_structure("Z/6"), _structure("Z/4")] + [
        _corrupted(base, rng, diagonal=d % 2 == 0) for d in range(6)]
    for structure in structures:
        labels = structure[0]
        report, asked = _counted_report(structure)
        assert report == ref.check_tables(*structure)
        named = [w for _, witness in report.values() if witness for w in witness
                 if w not in ("additive", "multiplicative", "left", "right")]
        assert named and [labels[i] for i in asked] == named
    assert _counted_report(structures[0])[1] == [2]  # Z/6: 2 has no inverse


# -- the commutative shortcuts, and the structures they must not take --------


def _commutative_table(rng, q):
    """A random symmetric q x q table: a random upper triangle, or x + y,
    x * y or max(x, y) mod q with the elements renumbered at random."""
    kind = rng.choice(["random", "add", "mul", "max"])
    perm = list(range(q))
    rng.shuffle(perm)
    op = {"add": lambda x, y: (x + y) % q, "mul": lambda x, y: x * y % q, "max": max}.get(kind)
    t = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            v = rng.randrange(q) if op is None else perm[op(perm.index(i), perm.index(j))]
            t[i][j] = t[j][i] = v
    return t


def test_symmetric_tables_match_reference():
    # commutative, so every shortcut is taken; a random table is mostly
    # neither associative nor distributive, a renumbered Z/q or max is
    # associative, so the one-gather and left-law-only paths meet both
    # outcomes
    rng = random.Random("symmetric tables")
    outcomes = set()
    for _ in range(400):
        q = rng.randrange(1, 9)
        structure = ([str(i) for i in range(q)], _commutative_table(rng, q),
                     _commutative_table(rng, q), rng.randrange(q), rng.randrange(q))
        expected = ref.check_tables(*structure)
        assert _library_report(*structure) == expected
        outcomes.add((expected["associativity"][0], expected["distributivity"][0]))
    assert outcomes == {(False, False), (True, False), (True, True)}


def _noncommutative(name):
    """Associative structures whose * does not commute, on nested lists.

    "Z/n right zero" is Z/n with x * y = y: left distributive, not right;
    "Z/n left zero" has x * y = x: right distributive, not left;
    "T2(GF(2))" is the ring of upper triangular 2 x 2 matrices over GF(2),
    [[a, b], [0, d]] at index 4a + 2b + d: every law but commutativity and
    inverses holds.
    """
    if name == "T2(GF(2))":
        entries = [(i >> 2, i >> 1 & 1, i & 1) for i in range(8)]
        index = {e: i for i, e in enumerate(entries)}
        add_t = [[index[tuple((x + y) % 2 for x, y in zip(e, f))] for f in entries]
                 for e in entries]
        mul_t = [[index[(a * a2 % 2, (a * b2 + b * d2) % 2, d * d2 % 2)]
                  for a2, b2, d2 in entries] for a, b, d in entries]
        return [f"[[{a},{b}],[0,{d}]]" for a, b, d in entries], add_t, mul_t, 0, index[(1, 0, 1)]
    n = int(name[2:name.index(" ")])
    right = name.endswith("right zero")
    return ([str(i) for i in range(n)], [[(i + j) % n for j in range(n)] for i in range(n)],
            [[j if right else i for j in range(n)] for i in range(n)], 0, 1)


@pytest.mark.parametrize("name", ["Z/5 right zero", "Z/6 left zero", "T2(GF(2))"])
def test_noncommutative_battery_matches_reference(name):
    # * is associative and not commutative, so neither shortcut may be
    # taken for it: each law's two sides differ on some pair
    structure = _noncommutative(name)
    expected = ref.check_tables(*structure)
    assert expected["associativity"] == (True, None)
    assert not expected["commutativity"][0]
    assert _library_report(*structure) == expected
    for table, last in ((structure[1], (0,)), (structure[2], (structure[4], 0))):
        gens = fields_mod._generators(np.array(table), last)
        assert _closure(table, gens) == set(range(len(table)))
