"""Reference GF(p^k) arithmetic on plain coefficient tuples.

Schoolbook polynomial products reduced by long division, irreducibility
by exhaustive trial division and an O(q^3) scan of the axiom battery,
written apart from ``finiverse.fields`` so the library's packed and
bulk products, its Rabin irreducibility test and its generating-set
axiom proofs can be checked against an implementation that shares none
of their code.  Coefficients are constant term first; indices are
base-p digit values.
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


def _first_difference(xs, ys):
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def check_tables(labels, add_t, mul_t, zero, one):
    """Every axiom over every pair or triple of the nested-list tables.

    Returns {axiom name: (passed, witness)}; each witness is the first
    failure in the order the library's full scan uses (tables + then *,
    rows a, then b, then c; left law before right law for each a).
    """
    q = len(labels)
    out = {}

    witness = None
    for t in (add_t, mul_t):
        bad = [(i, j) for i in range(q) for j in range(q) if t[i][j] != t[j][i]]
        if bad:
            witness = (labels[bad[0][0]], labels[bad[0][1]])
            break
    out["commutativity"] = (witness is None, witness)

    witness = None
    for t in (add_t, mul_t):
        for a in range(q):
            for b in range(q):
                lhs = t[t[a][b]]  # (a o b) o c over c
                rhs = [t[a][x] for x in t[b]]  # a o (b o c) over c
                if lhs != rhs:
                    witness = (labels[a], labels[b], labels[_first_difference(lhs, rhs)])
                    break
            if witness:
                break
        if witness:
            break
    out["associativity"] = (witness is None, witness)

    witness = None
    if add_t[zero] != list(range(q)):
        witness = (labels[_first_difference(add_t[zero], range(q))], "additive")
    elif mul_t[one] != list(range(q)):
        witness = (labels[_first_difference(mul_t[one], range(q))], "multiplicative")
    out["identities"] = (witness is None, witness)

    witness = None
    no_neg = [a for a in range(q) if zero not in add_t[a]]
    no_inv = [a for a in range(q) if a != zero and one not in mul_t[a]]
    if no_neg:
        witness = (labels[no_neg[0]], "additive")
    elif no_inv:
        witness = (labels[no_inv[0]], "multiplicative")
    out["inverses"] = (witness is None, witness)

    witness = None
    for a in range(q):
        row, col = mul_t[a], [mul_t[c][a] for c in range(q)]  # a*c and c*a over c
        for b in range(q):
            left = [row[x] for x in add_t[b]]  # a*(b+c) over c
            right = [add_t[row[b]][y] for y in row]  # a*b + a*c
            if left != right:
                witness = (labels[a], labels[b], labels[_first_difference(left, right)], "left")
                break
        if witness:
            break
        for b in range(q):
            left = [col[x] for x in add_t[b]]  # (b+c)*a over c
            right = [add_t[col[b]][y] for y in col]  # b*a + c*a
            if left != right:
                witness = (labels[b], labels[_first_difference(left, right)], labels[a], "right")
                break
        if witness:
            break
    out["distributivity"] = (witness is None, witness)
    return out
