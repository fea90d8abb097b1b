"""Exact arithmetic in Q(i)(v), the coefficient field of the engine.

Everything is a reduced fraction of Laurent polynomials in v = q^(1/2)
with Gaussian-rational coefficients, so equality is decidable and the bar
involution v -> v^(-1) is a plain substitution.
"""

from qcoideal import Scalar, is_bar_fixed, qshifted_factorial
from qcoideal.grammar import scalar_to_text
from qcoideal.scalars import ONE, ZERO, qbinom_eps

q = Scalar.q_pow(1)

print("== fractions reduce to canonical form ==")
s = (ONE - q ** 2) / (ONE - q ** 4)
print("(1 - q^2)/(1 - q^4)      =", scalar_to_text(s))
print("bar of it                =", scalar_to_text(s.bar()))
ok = s.bar() == q ** 2 / (ONE + q ** 2)
print("equals q^2/(1 + q^2)?    ", ok)
assert ok

print()
print("== bar-fixed elements ==")
for t, fixed in ((q + q ** -1, True), (q, False), (q ** -1 * (q + q ** -1), False)):
    print(f"is_bar_fixed({scalar_to_text(t)}) = {is_bar_fixed(t)}")
    assert is_bar_fixed(t) == fixed

print()
print("== balanced Gaussian binomials ==")
print("[2 choose 1]_q =", scalar_to_text(qbinom_eps(2, 1)))
print("[4 choose 2]_{q^2} =", scalar_to_text(qbinom_eps(4, 2, 2)))

print()
print("== the two alternating binomial sums ==")
for m in range(1, 7):
    vanish = ZERO
    phi = ZERO
    for k in range(m + 1):
        b = qbinom_eps(m, k, 1)
        if k % 2:
            b = -b
        vanish = vanish + b * q ** ((m - 1) * k)
        phi = phi + b * q ** ((m + 1) * k)
    print(
        f"m={m}: weighted sum vanishes: {vanish == ZERO}; "
        f"shifted-factorial sum matches: {phi == qshifted_factorial(q ** 2, m)}"
    )
    assert vanish == ZERO and phi == qshifted_factorial(q ** 2, m)
