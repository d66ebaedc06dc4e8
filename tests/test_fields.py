"""Exhaustive checks of the finite-field layer against independent oracles."""

import copy
import pickle
import random

import field_reference as ref
import pytest

from finiverse import fields as fields_mod
from finiverse.errors import (
    DimMismatchError,
    DivisionByZeroError,
    InvalidInputError,
    NotAFieldError,
    NotPrimeError,
    SizeLimitError,
    SpecMismatchError,
)
from finiverse.fields import (
    FieldElement,
    FieldSpec,
    _is_prime,
    element_index,
    enumerate_elements,
    make_extension_field,
    make_gaussian_extension,
    make_prime_field,
    operation_tables,
    verify_field_axioms,
    verify_modular_ring_axioms,
)
from finiverse.geometry import AffineSpace, enumerate_lines

E2 = make_prime_field(2)
E3 = make_prime_field(3)
E5 = make_prime_field(5)
E7 = make_prime_field(7)
F4 = make_extension_field(2, 2)
F9 = make_extension_field(3, 2)
R3 = make_gaussian_extension(3)
R7 = make_gaussian_extension(7)


def test_is_prime_small():
    primes = [n for n in range(60) if _is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not _is_prime(-7) and not _is_prime(1) and not _is_prime(2.0)


def test_is_prime_large():
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37 (psi_12, which
    # base 41 exposes); psi_13 itself is refused (below)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1)
    assert not _is_prime((2**31 - 1) * 1000000007)


def test_primality_from_psi_13_on_is_refused_at_once(deadline):
    # 2^89 - 1 is prime and beyond psi_13, where the bases decide nothing
    n = 2**89 - 1
    for call in (_is_prime, make_prime_field):
        with pytest.raises(SizeLimitError) as exc:
            call(n)
        assert exc.value.witness == {"requested": n, "cap": 3317044064679887385961980}
    with pytest.raises(SizeLimitError):
        _is_prime(3317044064679887385961981)
    # a factor among the bases still answers first
    assert not _is_prime(2**90) and not _is_prime(41 * n)


# -- construction ------------------------------------------------------------


def test_prime_field_rejects_composites():
    for bad in (1, 4, 6, 9, 100):
        with pytest.raises(NotPrimeError):
            make_prime_field(bad)


def test_extension_field_smallest_modulus():
    assert F4.modulus_poly == (1, 1, 1)  # x^2+x+1
    assert F9.modulus_poly == (1, 0, 1)  # x^2+1
    assert make_extension_field(2, 3).modulus_poly == (1, 1, 0, 1)  # x^3+x+1


def test_extension_modulus_is_smallest_irreducible():
    # independent check: no earlier monic quadratic is irreducible over GF(2)
    def has_root(poly, p):
        return any(
            sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p == 0 for x in range(p)
        )

    # quadratics/cubics are reducible iff they have a root
    for p, k in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3)):
        spec = make_extension_field(p, k)
        assert not has_root(spec.modulus_poly, p)
        chosen = sum(c * p**i for i, c in enumerate(spec.modulus_poly[:-1]))
        for idx in range(chosen):
            earlier = [(idx // p**i) % p for i in range(k)] + [1]
            assert has_root(earlier, p), f"{earlier} precedes the chosen modulus"


def test_extension_degree_one_is_prime_field():
    assert make_extension_field(7, 1) == E7


def test_extension_degree_bounds():
    with pytest.raises(InvalidInputError):
        make_extension_field(2, 0)
    with pytest.raises(InvalidInputError):
        make_extension_field(2, 7)


def test_reducible_modulus_rejected():
    with pytest.raises(NotAFieldError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)


def test_gaussian_extension_field_cases():
    assert R3.order == 9
    assert R7.order == 49
    assert R3.modulus_poly == (1, 0, 1)
    # for p = 3 mod 4 both factories quotient GF(p) by x^2 + 1: one field
    for p in (3, 7, 11, 19):
        gaussian, general = make_gaussian_extension(p), make_extension_field(p, 2)
        assert gaussian == general and hash(gaussian) == hash(general)
        a, b = gaussian.element([1, 2]), general.element([p - 1, 1])
        assert a + b == general.element([0, 3]) == b + a
        assert a * b == gaussian.element([-3, -1]) == b * a


def test_gaussian_extension_failure_witnesses():
    with pytest.raises(NotAFieldError) as exc2:
        make_gaussian_extension(2)
    assert exc2.value.witness == ((1, 1), (1, 1))

    with pytest.raises(NotAFieldError) as exc5:
        make_gaussian_extension(5)
    (x1, y1), (x2, y2) = exc5.value.witness
    assert (x1, y1) == (2, 1) and (x2, y2) == (3, 1)
    # the witness product really is zero in the quotient ring mod x^2+1
    assert (x1 * x2 - y1 * y2) % 5 == 0 and (x1 * y2 + y1 * x2) % 5 == 0


def test_gaussian_pattern_matches_residue_oracle():
    # success iff -1 has no square root mod p, i.e. p % 4 == 3
    for p in range(2, 100):
        if not _is_prime(p):
            continue
        has_root = any((r * r) % p == p - 1 for r in range(p))
        if has_root:
            with pytest.raises(NotAFieldError):
                make_gaussian_extension(p)
        else:
            assert p % 4 == 3
            assert make_gaussian_extension(p).order == p * p


# -- element arithmetic ------------------------------------------------------


def test_prime_field_arithmetic_examples():
    three, five = E7.element(3), E7.element(5)
    assert three + five == E7.element(1)
    assert three * five == E7.element(1)
    assert three.inverse() == E7.element(5)
    assert three - five == E7.element(5)
    assert (-three) == E7.element(4)
    assert three / five == three * five.inverse()


def test_f4_arithmetic_examples():
    alpha = F4.gen
    one = F4.one
    assert alpha * alpha == one + alpha  # the defining relation
    assert alpha + alpha == F4.zero
    assert alpha.inverse() == one + alpha
    assert alpha ** 3 == one


def test_gaussian_arithmetic_example():
    # (1+i)*(1+2i) = 1+3i+2i^2 = -1 = 2 over GF(3)
    u = R3.element([1, 1])
    v = R3.element([1, 2])
    assert u * v == R3.element([2, 0])


def test_inverse_matches_brute_force():
    for spec in (E5, E7, F4, F9, R3, make_extension_field(2, 3)):
        one = spec.one
        for a in enumerate_elements(spec):
            if a.is_zero:
                continue
            expected = next(b for b in enumerate_elements(spec) if a * b == one)
            assert a.inverse() == expected
            assert a * a.inverse() == one


def test_inverse_of_zero_raises():
    for spec in (E2, E7, F4, R3):
        with pytest.raises(DivisionByZeroError):
            spec.zero.inverse()
        with pytest.raises(DivisionByZeroError):
            spec.one / spec.zero


def test_spec_mismatch_rejected():
    with pytest.raises(SpecMismatchError):
        E2.one + E3.one
    with pytest.raises(SpecMismatchError):
        F4.gen * R3.element([0, 1])
    with pytest.raises(SpecMismatchError):
        E2.one + 1


def test_power_laws():
    for spec in (E7, F4, F9, R3):
        q = spec.order
        for a in enumerate_elements(spec):
            assert a ** 0 == spec.one
            if not a.is_zero:
                assert a ** (q - 1) == spec.one  # Lagrange
                assert a ** -1 == a.inverse()


def test_frobenius_fixes_every_element():
    # a**q == a, with the power computed by a naive repeated-multiply loop
    for spec in (E2, E3, E5, E7, make_prime_field(11), F4, F9, R3, R7,
                 make_extension_field(2, 4), make_extension_field(3, 3)):
        q = spec.order
        for a in enumerate_elements(spec):
            acc = spec.one
            for _ in range(q):
                acc = acc * a
            assert acc == a
            assert a ** q == a


# -- coercion and enumeration ------------------------------------------------


def test_element_coercions():
    assert E7.element(10) == E7.element(3)
    assert E7.element(-1) == E7.element(6)
    assert F4.element(3) == F4.element([1, 1])
    assert str(F4.element(3)) == "a+1"
    with pytest.raises(DimMismatchError):
        F4.element([1, 0, 0])
    with pytest.raises(InvalidInputError):
        F4.element(4)


def test_enumeration_order_and_index():
    elems = enumerate_elements(F4)
    assert [str(e) for e in elems] == ["0", "1", "a", "a+1"]
    assert elems[0] == F4.zero and elems[1] == F4.one
    for spec in (E7, F4, F9, R3):
        for i, e in enumerate(enumerate_elements(spec)):
            assert element_index(e) == i
            assert spec.element(i) == e


def test_enumeration_cap():
    spec = make_extension_field(103, 3)  # order 1092727 > 2**20
    with pytest.raises(SizeLimitError):
        enumerate_elements(spec)


def test_element_str_rendering():
    f27 = make_extension_field(3, 3)
    assert str(f27.element([1, 0, 2])) == "2a^2+1"
    assert str(f27.element([0, 0, 1])) == "a^2"
    assert str(f27.zero) == "0"
    assert str(E7.element(5)) == "5"


def test_elements_hashable_and_immutable():
    seen = {F4.element(i) for i in range(4)} | {F4.element(i) for i in range(4)}
    assert len(seen) == 4
    with pytest.raises(AttributeError):
        F4.one.coeffs = (0, 0)


# -- operation tables and axiom battery --------------------------------------


def test_operation_tables_e3():
    _, add_t, mul_t = operation_tables(E3)
    assert add_t.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert mul_t.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def test_gaussian_tables_match_general_construction():
    # the same field from the gaussian factory and built directly
    general = FieldSpec(7, 2, (1, 0, 1))
    _, add_g, mul_g = operation_tables(R7)
    _, add_n, mul_n = operation_tables(general)
    assert (add_g == add_n).all()
    assert (mul_g == mul_n).all()


AXIOM_NAMES = {"commutativity", "associativity", "identities", "inverses", "distributivity"}


def test_field_axioms_pass_for_fields():
    for spec in (E2, E3, E5, E7, make_prime_field(101), F4, F9, R3, R7,
                 make_gaussian_extension(11)):
        report = verify_field_axioms(spec)
        assert set(report.checks) == AXIOM_NAMES
        assert report.all_pass, f"{spec}: {[n for n, c in report.checks.items() if not c.passed]}"
        assert report.order == spec.order


def test_axiom_check_size_cap():
    spec = make_extension_field(23, 2)  # order 529 > 500
    with pytest.raises(SizeLimitError):
        verify_field_axioms(spec)


def test_modular_ring_diagnostics():
    report6 = verify_modular_ring_axioms(6)
    assert not report6.all_pass
    assert [name for name, c in report6.checks.items() if not c.passed] == ["inverses"]
    assert report6.checks["inverses"].witness == ("2", "multiplicative")
    for name in AXIOM_NAMES - {"inverses"}:
        assert report6.checks[name].passed

    report4 = verify_modular_ring_axioms(4)
    assert report4.checks["inverses"].witness == ("2", "multiplicative")

    assert verify_modular_ring_axioms(7).all_pass
    assert verify_modular_ring_axioms(2).all_pass

    for n in (1, 0, -3, True, 2.0, "6"):
        with pytest.raises(InvalidInputError):
            verify_modular_ring_axioms(n)
    with pytest.raises(SizeLimitError) as exc:
        verify_modular_ring_axioms(501)
    assert exc.value.witness == {"requested": 501, "cap": 500}


# -- log/antilog table core: differential checks -----------------------------

#: every general field GF(p^k) of order <= 256 with 2 <= k <= 6
GENERAL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 7) if p**k <= 256]


#: prime fields and Gaussian fields GF(p^2) = GF(p)[i], beside the general ones
PRIME_FIELDS = [(p, 1) for p in (2, 3, 5, 7, 13, 31, 101, 211, 499)]
GAUSSIAN_FIELDS = [(p, 2) for p in (3, 7, 11, 19)]


@pytest.mark.parametrize(
    "p,k,gaussian",
    [(p, k, False) for p, k in GENERAL_FIELDS + PRIME_FIELDS]
    + [(p, k, True) for p, k in GAUSSIAN_FIELDS],
    ids=[f"GF({p}^{k})" for p, k in GENERAL_FIELDS]
    + [f"GF({p})" for p, _ in PRIME_FIELDS]
    + [f"GF({p}^2)-gaussian" for p, _ in GAUSSIAN_FIELDS],
)
def test_operation_tables_match_polynomial_reference(p, k, gaussian):
    spec = make_gaussian_extension(p) if gaussian else make_extension_field(p, k)
    elements, add_t, mul_t = operation_tables(spec)
    add_r, mul_r = ref.tables(p, k, spec.modulus_poly)
    assert add_t.tolist() == add_r
    assert mul_t.tolist() == mul_r
    assert [e.coeffs for e in elements] == [ref.digits(n, p, k) for n in range(p**k)]


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_tabled_and_untabled_specs_agree(p, k):
    tabled = make_extension_field(p, k)
    enumerate_elements(tabled)
    plain = make_extension_field(p, k)
    q = tabled.order
    for i in range(q):
        a, pa = tabled.element(i), plain.element(i)
        for n in (-q - 1, -3, -1, 0, 1, 2, 5, q - 1, q, 10**30, -10**30):
            if i == 0 and n < 0:
                with pytest.raises(DivisionByZeroError):
                    a ** n
                with pytest.raises(DivisionByZeroError):
                    pa ** n
            else:
                assert (a ** n).coeffs == (pa ** n).coeffs
        if i:
            assert a.inverse().coeffs == pa.inverse().coeffs
        assert (-a).coeffs == (-pa).coeffs
        for j in range(q):
            b, pb = tabled.element(j), plain.element(j)
            assert (a * b).coeffs == (pa * pb).coeffs
            assert (a + b).coeffs == (pa + pb).coeffs
            assert (a - b).coeffs == (pa - pb).coeffs
            if j:
                assert (a / b).coeffs == (pa / pb).coeffs
            else:
                with pytest.raises(DivisionByZeroError):
                    a / b
    assert plain._tables is None  # arithmetic alone never builds tables


#: fields of the benchmark's field_sweep kind, too large to tabulate
UNTABLED_FIELDS = [(999_999_999_989, 1), (2003, 2), (47, 4)]


@pytest.mark.parametrize("p,k", UNTABLED_FIELDS, ids=[f"GF({p}^{k})" for p, k in UNTABLED_FIELDS])
def test_untabled_arithmetic_matches_reference(p, k):
    spec = make_extension_field(p, k)
    q, modulus = p**k, spec.modulus_poly
    rng = random.Random(q)
    indices = [0, 1, p - 1, q - 1] + [rng.randrange(q) for _ in range(40)]
    for i, j in zip(indices, reversed(indices)):
        a, b = spec.element(i), spec.element(j)
        ra, rb = ref.digits(i, p, k), ref.digits(j, p, k)
        assert a.coeffs == ra
        assert (a + b).coeffs == ref.add(ra, rb, p)
        assert (a - b).coeffs == ref.add(ra, ref.neg(rb, p), p)
        assert (-a).coeffs == ref.neg(ra, p)
        assert (a * b).coeffs == ref.mul(ra, rb, modulus, p)
        if j:
            inverse = ref.power(rb, q - 2, modulus, p)
            assert b.inverse().coeffs == inverse
            assert (a / b).coeffs == ref.mul(ra, inverse, modulus, p)
        # a negative power is a power of the inverse, 0**0 is one
        for n in (0, 1, q - 2, q - 1, q, -1, -q, 10**30, -10**30):
            if n >= 0:
                assert (a ** n).coeffs == ref.power(ra, n, modulus, p)
            elif i:
                inverse = ref.power(ra, q - 2, modulus, p)
                assert (a ** n).coeffs == ref.power(inverse, -n, modulus, p)
            else:
                with pytest.raises(DivisionByZeroError):
                    a ** n
    assert spec._tables is None


def test_results_do_not_depend_on_the_history_of_the_spec():
    # every operator builds its result from the index, before and after
    # the field is enumerated and its tables are built
    spec = make_extension_field(3, 3)

    def results():
        a, b = spec.element(5), spec.element(17)
        return [a * b, a / b, a.inverse(), a ** 7, a + b, a - b, -a,
                spec.element(list(a.coeffs))]

    before = results()
    elements = enumerate_elements(spec)
    assert spec._tables is None  # enumerating builds no tables
    after = [results()]
    operation_tables(spec)
    enumerate_lines(AffineSpace(spec, 2))
    assert spec._tables is not None
    after.append(results())
    for results_after in after:
        for x, y in zip(before, results_after, strict=True):
            assert type(x) is type(y) is FieldElement
            assert element_index(y) == element_index(x) and y == x
            assert y == elements[element_index(y)]
    # an element built directly still works against the enumerated ones
    fresh = FieldElement(spec, elements[5].coeffs)
    assert fresh * elements[17] == before[0] == elements[5] * elements[17]


def test_table_build_rejects_a_ring():
    # x^2+1 = (x+1)^2 over GF(2) and x^2+2 = (x+1)(x+2) over GF(3): the
    # quotients are rings, and the generator's powers repeat early
    for p, modulus in ((2, (1, 0, 1)), (3, (2, 0, 1))):
        ring = fields_mod._proven_spec(p, 2, modulus)
        with pytest.raises(NotAFieldError) as exc:
            operation_tables(ring)
        generator, steps = exc.value.witness
        assert 0 < steps < p * p - 1


def test_factory_proves_irreducibility_once(monkeypatch):
    calls = []
    real = fields_mod._is_irreducible

    def counting(poly, p):
        calls.append(tuple(poly))
        return real(poly, p)

    monkeypatch.setattr(fields_mod, "_is_irreducible", counting)
    spec = make_extension_field(13, 2)
    assert calls[-1] == spec.modulus_poly
    assert calls.count(spec.modulus_poly) == 1  # the search's test, not a repeat
    calls.clear()
    FieldSpec(13, 2, spec.modulus_poly)  # a spec built directly is still validated
    assert calls == [spec.modulus_poly]


def test_copies_and_pickles_of_a_tabled_field():
    spec = make_extension_field(5, 2)
    a = operation_tables(spec)[0][7]
    assert spec._tables is not None
    for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        spec2, a2 = clone(spec), clone(a)
        assert spec2 == spec and spec2._tables is None  # tables are not copied
        assert a2 == a and (a2 * a2).coeffs == (a * a).coeffs


def test_copies_and_pickles_of_an_untabled_extension():
    spec = make_extension_field(101, 4)
    a = spec.element(12345)
    square = a * a  # builds the packed kernel
    assert spec._kernel is not None and spec._tables is None
    for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        spec2 = clone(spec)
        assert spec2 == spec and spec2._kernel is None  # the kernel is not copied
        assert spec2.element(12345) * spec2.element(12345) == clone(square)
