"""Reference GF(p^k) arithmetic on plain coefficient tuples.

Schoolbook polynomial products reduced by long division, written apart
from ``finiverse.fields`` so the library's log/antilog tables can be
checked against an implementation that shares none of their code.
Coefficients are constant term first; indices are base-p digit values.
"""


def digits(n, p, k):
    return tuple((n // p**i) % p for i in range(k))


def index(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


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
