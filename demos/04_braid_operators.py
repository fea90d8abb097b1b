"""Lusztig's braid operators: generator images, braid relations, and the
conformance identities that pin the sign conventions.
"""

from qcoideal import (
    BraidOperator,
    Element,
    apply_braid,
    apply_word,
    bar_element,
    braid_T,
    cartan_datum,
    equals,
    sigma,
)
from qcoideal.grammar import element_to_text

a2 = cartan_datum("A", 2)
E1 = Element.E(a2, 1)

print("== images of generators ==")
print("T_2(E_1) =", element_to_text(apply_braid(braid_T(a2, 2), E1)))
print("T_1(E_1) =", element_to_text(apply_braid(braid_T(a2, 1), E1)))
print("T_1 T_2 (E_1) =", element_to_text(apply_word((1, 2), E1)),
      " (a Weyl-compatible image)")

print()
print("== braid relations in ranks with m = 3, 4, 6 ==")
for kind, rank in (("A", 2), ("B", 2), ("G", 2)):
    datum = cartan_datum(kind, rank)
    m = datum.coxeter_m(1, 2)
    w1 = tuple(1 if t % 2 == 0 else 2 for t in range(m))
    w2 = tuple(2 if t % 2 == 0 else 1 for t in range(m))
    ok = all(
        equals(apply_word(w1, g), apply_word(w2, g))
        for i in datum.labels
        for g in (Element.E(datum, i), Element.F(datum, i))
    )
    print(f"{kind}_{rank} (m = {m}): alternating products agree on generators: {ok}")
    assert ok

print()
print("== the conformance identities ==")
x = Element.E(a2, 1) * Element.E(a2, 2)
op = BraidOperator(1)
identities = (
    ("inverse pairing:",
     equals(apply_braid(op.inverse(), apply_braid(op, x)), x)),
    ("sigma conjugates to the inverse:",
     equals(apply_braid(op, sigma(x)),
            sigma(apply_braid(BraidOperator(1, False, -1), x)))),
    ("bar flips the sign family:",
     equals(bar_element(apply_braid(BraidOperator(1, True, 1), x)),
            apply_braid(BraidOperator(1, True, -1), bar_element(x)))),
)
for text, ok in identities:
    print(text, ok)
    assert ok
