"""The quantized enveloping algebra: normal-ordered elements, the Hopf
structure, skew derivations, and the semantic zero test that recognizes
the quantum Serre relations without ever rewriting them.
"""

from qcoideal import (
    Element,
    cartan_datum,
    coproduct,
    counit,
    antipode,
    equals,
    is_zero,
    serre_polynomial,
    skew_r,
    skew_ir,
    sigma,
)
from qcoideal.grammar import element_to_text
from qcoideal.scalars import Scalar

a2 = cartan_datum("A", 2)
E1, E2 = Element.E(a2, 1), Element.E(a2, 2)
F1 = Element.F(a2, 1)
q = Scalar.q_pow(1)

print("== straightening to normal order ==")
print("E_1 F_1        =", element_to_text(E1 * F1))
print("F_1 E_1        =", element_to_text(F1 * E1))
print("commutator     =", element_to_text(E1 * F1 - F1 * E1))

print()
print("== the coproduct and its friends ==")
print("coproduct(E_1) has", len(coproduct(E1).terms), "tensor terms")
print("counit(K + E_1 F_1) =", counit(Element.K_i(a2, 1) + E1 * F1))
print("antipode(F_1)  =", element_to_text(antipode(F1)))

print()
print("== quantum Serre relations vanish semantically ==")
serre = serre_polynomial(a2, 1, 2, E1, E2)
print("the Serre combination has", len(serre.terms), "stored words")
print("is_zero:", is_zero(serre))
print("but a single generator is not zero:", is_zero(E1))
assert is_zero(serre) and not is_zero(E1)

print()
print("== skew derivations by letter deletion ==")
x = E1 * E2 * E1
print("x = E_1 E_2 E_1")
print("r_1(x)  =", element_to_text(skew_r(1, x)))
print("_1r(x)  =", element_to_text(skew_ir(1, x)))
lhs = x * F1 - F1 * x
rhs = (
    skew_r(1, x) * Element.K_i(a2, 1) - Element.K_i(a2, 1, -1) * skew_ir(1, x)
).scale((q - q ** -1).inverse())
matches = equals(lhs, rhs)
print("commutator of x with F_1 matches the two-sided derivation form:", matches)
intertwines = sigma(skew_r(1, x)) == skew_ir(1, sigma(x))
print("sigma intertwines the two derivations:", intertwines)
assert matches and intertwines
