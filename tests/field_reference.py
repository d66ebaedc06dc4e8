"""Reference GF(p^k) arithmetic on plain coefficient tuples.

Schoolbook polynomial products reduced by long division, and
irreducibility by exhaustive trial division, written apart from
``finiverse.fields`` so the library's log/antilog tables and its Rabin
irreducibility test can be checked against an implementation that
shares none of their code.  Coefficients are constant term first;
indices are base-p digit values.
"""


def digits(n, p, k):
    return tuple((n // p**i) % p for i in range(k))


def index(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def neg(a, p):
    return tuple((-x) % p for x in a)


def mul(a, b, modulus, p):
    """a*b reduced modulo the monic ``modulus`` of degree k = len(a)."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c:
            for j, m in enumerate(modulus):
                prod[top - k + j] = (prod[top - k + j] - c * m) % p
    return tuple(prod[:k])


def power(a, n, modulus, p):
    """a**n for n >= 0 by square-and-multiply over ``mul``."""
    result = (1,) + (0,) * (len(a) - 1)
    while n:
        if n & 1:
            result = mul(result, a, modulus, p)
        a = mul(a, a, modulus, p)
        n >>= 1
    return result


def tables(p, k, modulus):
    """Full q x q addition and multiplication index tables as nested lists."""
    q = p**k
    elems = [digits(n, p, k) for n in range(q)]
    add_t = [[index(add(a, b, p), p) for b in elems] for a in elems]
    mul_t = [[0] * q for _ in range(q)]
    for i, a in enumerate(elems):
        for j in range(i, q):
            mul_t[i][j] = mul_t[j][i] = index(mul(a, elems[j], modulus, p), p)
    return add_t, mul_t


def divides(d, f, p):
    """True when the monic d divides f over GF(p), by long division."""
    rem = list(f)
    for top in range(len(rem) - 1, len(d) - 2, -1):
        c = rem[top] % p
        if c:
            for j, m in enumerate(d):
                rem[top - len(d) + 1 + j] -= c * m
    return all(c % p == 0 for c in rem[:len(d) - 1])


def is_irreducible(poly, p):
    """Exhaustive trial division of a monic poly by every monic
    polynomial of degree 1 .. deg//2: about p^(deg//2) divisions."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    return not any(
        divides(digits(n, p, d) + (1,), poly, p)
        for d in range(1, deg // 2 + 1)
        for n in range(p**d)
    )


def smallest_irreducible(p, k):
    """The first irreducible among the monic polynomials of degree k,
    taken in base-p order of their lower coefficients."""
    return next(
        f for f in (digits(n, p, k) + (1,) for n in range(p**k)) if is_irreducible(f, p)
    )
