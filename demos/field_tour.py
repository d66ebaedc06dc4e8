"""
A walk through the small finite fields
=======================================

Builds the integers mod p, the four-element field, and the Gaussian
pairs x + iy, then shows why p = 5 refuses to cooperate.
"""

from finiverse.fields import (
    enumerate_elements,
    make_extension_field,
    make_gaussian_extension,
    make_prime_field,
    operation_tables,
    verify_field_axioms,
)
from finiverse.errors import NotAFieldError

# the integers mod 5 form a field: every nonzero element has an inverse
e5 = make_prime_field(5)
print("E5 elements:", ", ".join(str(e) for e in enumerate_elements(e5)))
for x in enumerate_elements(e5):
    if not x.is_zero:
        print(f"  1/{x} = {x.inverse()}")

# the four-element field lives above GF(2); its generator a satisfies
# a*a = a + 1, which no integer arithmetic can imitate
f4 = make_extension_field(2, 2)
a = f4.gen
print("\nF4 modulus:", f4.modulus_poly)
print("a * a =", a * a)
print("a^3   =", a * a * a)

# full multiplication table, rendered the classical way
elements, _, mul = operation_tables(f4)
labels = [str(e) for e in elements]
width = max(len(s) for s in labels)
print("\nF4 multiplication table:")
print(" " * width, " ".join(s.rjust(width) for s in labels))
for i, row_label in enumerate(labels):
    row = [labels[j].rjust(width) for j in mul[i]]
    print(row_label.rjust(width), " ".join(row))

# Gaussian pairs x + iy work over p = 3 because -1 has no square root
# there; the axiom battery agrees
r3 = make_gaussian_extension(3)
report = verify_field_axioms(r3)
print("\nR3 axiom checks:")
for name, check in report.checks.items():
    print(f"  {name}: {'pass' if check.passed else 'FAIL'}")

# over p = 5 the square root of -1 exists (2*2 = 4 = -1), so the pairs
# contain zero divisors and the constructor refuses, naming a pair
try:
    make_gaussian_extension(5)
except NotAFieldError as exc:
    print("\nR5 is not a field; witness zero divisors:", exc.witness)
