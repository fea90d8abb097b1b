"""Deciding whether the intrinsic bar involution of a coideal subalgebra
exists, for concrete parameter families, and picking the canonical family
in each equivalence class.
"""

from qcoideal import (
    QSPParameters,
    bar_exists,
    canonical_params,
    cartan_datum,
    check_ocZ,
    context_for,
    corollary_conditions,
    enumerate_admissible,
    nu_sign,
    validate_admissible,
)
from qcoideal.grammar import scalar_to_text
from qcoideal.scalars import ONE, Scalar

q = Scalar.q_pow(1)
a3 = cartan_datum("A", 3)

print("== the sign and the q-power attached to each node ==")
pair = validate_admissible(a3, {2}, {1: 3, 2: 2, 3: 1})
ctx = context_for(pair)
for i in (1, 3):
    verified = check_ocZ(ctx, i)
    print(f"node {i}: nu = {nu_sign(ctx, i):+d}, ell = {scalar_to_text(ctx.ell(i))},"
          f" bar(Z) identity verified: {verified}")
    assert verified

print()
print("== existence decisions on the two A_3 families ==")
for c, label, failing in (
    ({1: q, 3: q}, "(q, q)", []),
    ({1: q, 3: q ** -1}, "(q, q^-1)", [1, 3]),
):
    rep = bar_exists(QSPParameters(pair, c))
    print(f"X={{2}} with c = {label}: {rep.verdict}"
          + (f", failing at {rep.failing_nodes}" if rep.failing_nodes else ""))
    assert rep.failing_nodes == failing

quasi = validate_admissible(a3, set(), {1: 3, 2: 2, 3: 1})
for c, label, failing in (
    ({1: ONE, 2: q ** -1, 3: ONE}, "(1, q^-1, 1)", []),
    ({1: ONE, 2: ONE, 3: ONE}, "(1, 1, 1)", [2]),
):
    rep = bar_exists(QSPParameters(quasi, c))
    print(f"X=[] with c = {label}: {rep.verdict}"
          + (f", failing at {rep.failing_nodes}" if rep.failing_nodes else ""))
    assert rep.failing_nodes == failing

print()
print("== the scalar-level criterion agrees with the engine ==")
params = QSPParameters(quasi, {1: q + q ** -1, 2: q ** -1, 3: q + q ** -1})
engine, direct = bar_exists(params), corollary_conditions(params)
print("engine:", engine.verdict, "| direct parameter conditions:", direct.verdict)
assert engine.verdict == direct.verdict == "exists"

print()
print("== canonical parameters per pair ==")
for p in enumerate_admissible(a3):
    free = sorted(set(a3.labels) - p.X)
    if not free:
        continue
    d = canonical_params(p)
    rep = bar_exists(QSPParameters(p, d))
    moved = {i: j for i, j in sorted(p.tau.items()) if i != j}
    printable = {i: scalar_to_text(v) for i, v in sorted(d.items())}
    print(f"X={sorted(p.X)}, tau={moved or 'id'}: d = {printable} -> {rep.verdict}")
    assert rep.exists
