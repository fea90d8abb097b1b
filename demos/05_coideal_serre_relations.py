"""Coideal generators and the inhomogeneous quantum Serre relations.

For an admissible pair the twisted generators B_i close under a deformed
Serre relation whose right-hand side is computed two independent ways: a
closed formula assembled from the Z and W elements, and a projection
oracle that extracts it from the coproduct.  The engine certifies both
agree and that the relation itself holds exactly.
"""

from qcoideal import (
    QSPParameters,
    b_generator,
    c_closed,
    c_closed_torus,
    c_oracle,
    cartan_datum,
    context_for,
    equals,
    is_zero,
    serre_projection,
    validate_admissible,
    w_element,
)
from qcoideal.grammar import element_to_text
from qcoideal.scalars import ONE, Scalar

q = Scalar.q_pow(1)

print("== quasi-split A_2 ==")
a2 = cartan_datum("A", 2)
pair = validate_admissible(a2, set(), {1: 1, 2: 2})
params = QSPParameters(pair, {1: q, 2: ONE + q})
ctx = context_for(pair)
print("B_1 =", element_to_text(b_generator(params, 1)))
print("Z_1 =", element_to_text(ctx.z(1)))
closed = c_closed(params, 1, 2)
oracle = c_oracle(params, 1, 2)
print("closed right-hand side   =", element_to_text(closed))
agrees, holds = equals(closed, oracle), is_zero(serre_projection(params, 1, 2)[1])
print("projection oracle agrees =", agrees)
print("deformed Serre relation holds =", holds)
assert agrees and holds

print()
print("== B_2 with X = {2}: the W element enters ==")
b2 = cartan_datum("B", 2)
pair = validate_admissible(b2, {2}, {1: 1, 2: 2})
params = QSPParameters(pair, {1: q})
ctx = context_for(pair)
print("Z_1 =", element_to_text(ctx.z(1)))
print("W_12 =", element_to_text(w_element(ctx, 1, 2)))
oracle = c_oracle(params, 1, 2)
unified = equals(c_closed(params, 1, 2), oracle)
torus = equals(c_closed_torus(params, 1, 2), oracle)
holds = is_zero(serre_projection(params, 1, 2)[1])
print("unified closed form agrees:", unified)
print("commutator-style closed form agrees:", torus)
print("relation holds:", holds)
assert unified and torus and holds

print()
print("== the triple-bond case ==")
g2 = cartan_datum("G", 2)
pair = validate_admissible(g2, set(), {1: 1, 2: 2})
params = QSPParameters(pair, {1: ONE - q, 2: q})
oracle = c_oracle(params, 2, 1)
agrees, holds = equals(c_closed(params, 2, 1), oracle), is_zero(serre_projection(params, 2, 1)[1])
print("closed form agrees with the oracle:", agrees)
print("relation holds:", holds)
assert agrees and holds
