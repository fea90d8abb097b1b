import gc
import weakref

import pytest

import qcoideal.cartan as cartan_mod
import qcoideal.qsp as qsp_mod
import qcoideal.suites as suites
import qcoideal.uqg as uqg

from qcoideal.braid import apply_word, braid_T, apply_braid
from qcoideal.cartan import CartanDatum, cartan_datum, enumerate_admissible, validate_admissible
from qcoideal.qsp import (
    MembershipError,
    NoClosedFormulaError,
    QSPParameters,
    b_generator,
    c_closed,
    c_closed_torus,
    c_oracle,
    context_for,
    in_set_C,
    in_set_S,
    s_value,
    serre_projection,
    w_element,
)
from qcoideal.scalars import I_UNIT, ONE, ZERO, Scalar, qshifted_factorial
from qcoideal.uqg import Element, equals, is_zero, serre_polynomial, skew_r

Q = Scalar.q_pow(1)

A3 = cartan_datum("A", 3)
AIV = validate_admissible(A3, {2}, {1: 3, 2: 2, 3: 1})
A2 = cartan_datum("A", 2)
A2_QS = validate_admissible(A2, set(), {1: 1, 2: 2})
A2_SWAP = validate_admissible(A2, set(), {1: 2, 2: 1})
B2 = cartan_datum("B", 2)
BII = validate_admissible(B2, {2}, {1: 1, 2: 2})


def test_s_value_cases():
    for j in (2,):
        assert s_value(AIV, j) == ONE  # j in X
    assert s_value(A2_QS, 1) == ONE  # tau(j) = j
    # AIV n=3, node 1: tau(1)=3 > 1 and alpha_1(2 rho_X^vee) = -1
    assert s_value(AIV, 1) == -I_UNIT
    assert s_value(AIV, 3) == I_UNIT


def test_s_value_at_even_pairings():
    """A4, X = {2, 3}, tau the flip: alpha_j(2 rho_X^vee) = -2 at j = 1 and
    j = 4, so s_1 = i^-2 and s_4 = i^2, both -1 whichever node takes the
    sign."""
    pair = validate_admissible(cartan_datum("A", 4), {2, 3}, {1: 4, 2: 3, 3: 2, 4: 1})
    assert s_value(pair, 1) == s_value(pair, 4) == Scalar.gaussian(-1)


def test_theta_twist_values():
    ctx = context_for(A2_SWAP)
    assert ctx.theta_fk(1) == Element.E(A2, 2).scale(-s_value(A2_SWAP, 2))
    ctx = context_for(AIV)
    want = apply_word(AIV.wX_word, Element.E(A3, 3)).scale(-s_value(AIV, 3))
    assert ctx.theta_fk(1) == want
    ctx = context_for(BII)
    want = apply_braid(braid_T(B2, 2), Element.E(B2, 1)).scale(-ONE)
    assert ctx.theta_fk(1) == want


def test_b_generator_cases():
    params = QSPParameters(AIV, {1: Q, 3: Q})
    assert b_generator(params, 2) == Element.F(A3, 2)  # inside X
    qs = QSPParameters(A2_QS, {1: Q, 2: ONE})
    got = b_generator(qs, 1)
    want = Element.F(A2, 1) - (Element.E(A2, 1) * Element.K_i(A2, 1, -1)).scale(Q)
    assert got == want


def test_z_element_values():
    ctx = context_for(A2_QS)
    assert ctx.z(1) == Element.one(A2).scale(-ONE)
    ctx = context_for(A2_SWAP)
    kvec = tuple(b - a for a, b in zip(A2.simple_root(1), A2.simple_root(2)))
    assert ctx.z(1) == Element.K(A2, kvec).scale(-s_value(A2_SWAP, 2))
    # AIV n=3: -s(3)(1 - q^{-2}) E_2 K_3 K_1^{-1}
    ctx = context_for(AIV)
    kvec = tuple(
        b - a for a, b in zip(A3.simple_root(1), A3.simple_root(3))
    )
    want = (Element.E(A3, 2) * Element.K(A3, kvec)).scale(
        -s_value(AIV, 3) * (ONE - Q ** -2)
    )
    assert equals(ctx.z(1), want)


def test_w_element():
    ctx = context_for(BII)
    # consistency with the double-derivation route
    pairing = B2.bilinear(B2.simple_root(1), B2.simple_root(2))
    assert pairing == -2
    lhs = skew_r(2, ctx.z(1))
    rhs = w_element(ctx, 1, 2).scale(ONE - Scalar.q_pow(2 * pairing))
    assert equals(lhs, rhs)
    # no X nodes in the quasi-split case: domain is empty
    ctx0 = context_for(A2_QS)
    with pytest.raises(ValueError):
        w_element(ctx0, 1, 2)


def test_c_closed_zero_cases():
    a1a1 = CartanDatum([[2, 0], [0, 2]])
    pair = validate_admissible(a1a1, set(), {1: 1, 2: 2})
    params = QSPParameters(pair, {1: Q, 2: Q})
    assert c_closed(params, 1, 2).terms == {}
    # split pair with j neither i nor tau(i)
    pair = validate_admissible(A3, set(), {1: 3, 2: 2, 3: 1})
    params = QSPParameters(pair, {1: ONE, 2: Q, 3: ONE})
    assert c_closed(params, 1, 2).terms == {}


def test_c_closed_quasi_split_single_bond():
    params = QSPParameters(A2_QS, {1: Q, 2: ONE + Q})
    got = c_closed(params, 1, 2)
    # Z_1 = -1, so the value is -q_1 c_1 B_2
    want = b_generator(params, 2).scale(-Q * params.c[1])
    assert equals(got, want)


def test_c_closed_split_m1_simplification():
    a1a1 = CartanDatum([[2, 0], [0, 2]])
    pair = validate_admissible(a1a1, set(), {1: 2, 2: 1})
    params = QSPParameters(pair, {1: Q, 2: Q})
    ctx = context_for(pair)
    got = c_closed(params, 1, 2)
    qdiff = Q - Q ** -1
    want = (
        ctx.z(1).scale(params.c[1]) - ctx.z(2).scale(params.c[2])
    ).scale(qdiff.inverse())
    assert equals(got, want)
    assert equals(got, c_oracle(params, 1, 2))


def test_c_oracle_matches_split_formula_m2():
    params = QSPParameters(A2_SWAP, {1: Q, 2: ONE + Q})
    ctx = context_for(A2_SWAP)
    m = 2
    Bi = b_generator(params, 1)
    pref = -((Q - Q ** -1) ** 2).inverse()
    want = (
        (Bi * ctx.z(1).scale(params.c[1])).scale(
            Q ** -m * qshifted_factorial(Q ** 2, m)
        )
        + (Bi * ctx.z(2).scale(params.c[2])).scale(
            Q * qshifted_factorial(Q ** -2, m)
        )
    ).scale(pref)
    oracle = c_oracle(params, 1, 2)
    assert equals(oracle, want)
    assert equals(c_closed(params, 1, 2), oracle)


def test_c_closed_out_of_scope():
    g2 = cartan_datum("G", 2)
    # tau-fixed node with a Cartan entry of -3 towards X does not occur in
    # rank 2, so exercise the free-node bound instead via a crafted matrix
    datum = CartanDatum([[2, -4], [-1, 2]])
    pair = validate_admissible(datum, set(), {1: 1, 2: 2})
    params = QSPParameters(pair, {1: Q, 2: Q})
    with pytest.raises(NoClosedFormulaError, match="open"):
        c_closed(params, 1, 2)


def test_closed_forms_refuse_what_they_do_not_cover():
    b3 = cartan_datum("B", 3)
    params = QSPParameters(validate_admissible(b3, {3}, {1: 1, 2: 2, 3: 3}), {1: Q, 2: Q})
    for build in (c_closed, serre_projection):
        with pytest.raises(ValueError, match="i != j"):
            build(params, 1, 1)
    # the torus form needs i outside X and j in X, and is zero at a_ij = 0
    assert b3.a(1, 3) == 0 and is_zero(c_closed_torus(params, 1, 3))
    for i, j in ((3, 1), (1, 2)):
        with pytest.raises(NoClosedFormulaError, match="torus-commutator"):
            c_closed_torus(params, i, j)
    with pytest.raises(ValueError, match="outside X"):
        context_for(params.pair).theta_fk(3)
    # a_12 = -3 towards j in X: admissible once a_21 is even, past the torus form
    datum = CartanDatum([[2, -3], [-2, 2]])
    params = QSPParameters(validate_admissible(datum, {2}, {1: 1, 2: 2}), {1: Q})
    with pytest.raises(NoClosedFormulaError, match="got -3"):
        c_closed_torus(params, 1, 2)


def test_g2_case4_closed_vs_oracle():
    g2 = cartan_datum("G", 2)
    pair = validate_admissible(g2, set(), {1: 1, 2: 2})
    params = QSPParameters(pair, {1: ONE - Q, 2: Q})
    oracle = c_oracle(params, 2, 1)
    assert equals(c_closed(params, 2, 1), oracle)
    assert is_zero(serre_projection(params, 2, 1)[1])


def test_torus_closed_form_bii():
    params = QSPParameters(BII, {1: Q})
    oracle = c_oracle(params, 1, 2)
    assert equals(c_closed_torus(params, 1, 2), oracle)
    assert equals(c_closed(params, 1, 2), oracle)
    assert is_zero(serre_projection(params, 1, 2)[1])


def test_serre_defect_aiii_middle_node():
    # quasi-split A_3 with the flip: the middle node is tau-fixed and its
    # neighbours are split, single-bond case
    pair = validate_admissible(A3, set(), {1: 3, 2: 2, 3: 1})
    params = QSPParameters(pair, {1: ONE, 2: Q, 3: ONE})
    B2, B1 = b_generator(params, 2), b_generator(params, 1)
    assert is_zero(serre_polynomial(A3, 2, 1, B2, B1) - c_closed(params, 2, 1))
    assert is_zero(serre_projection(params, 2, 1)[1])


def test_serre_defect_oracle_everywhere_on_aiv():
    params = QSPParameters(AIV, {1: Q, 3: ONE + Q})
    for i, j in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]:
        assert is_zero(serre_projection(params, i, j)[1])


def test_parameter_set_membership():
    # c must be nonzero
    assert in_set_C(A2_QS, {1: ZERO, 2: Q})
    # orthogonal split pair forces equality
    a1a1 = CartanDatum([[2, 0], [0, 2]])
    pair = validate_admissible(a1a1, set(), {1: 2, 2: 1})
    assert in_set_C(pair, {1: Q, 2: Q ** 2})
    assert not in_set_C(pair, {1: Q, 2: Q})
    with pytest.raises(MembershipError):
        QSPParameters(pair, {1: Q, 2: Q ** 2})
    # adjacent split pair leaves both free
    assert not in_set_C(A2_SWAP, {1: Q, 2: Q ** 2})


def test_parameters_report_missing_and_unknown_nodes():
    with pytest.raises(MembershipError, match="missing parameter c_3"):
        QSPParameters(AIV, {1: Q})
    for c, s in (({1: Q, 3: Q, 9: Q}, None), ({1: Q, 3: Q}, {9: Q})):
        with pytest.raises(ValueError, match="unknown node label 9"):
            QSPParameters(AIV, c, s)


def test_s_membership_uses_column_entries():
    # quasi-split B_2: node 1 sees a_{21} = -2 (allowed), node 2 sees
    # a_{12} = -1 (forbidden); this orientation is the corrected condition
    pair = validate_admissible(B2, set(), {1: 1, 2: 2})
    assert pair.I_ns == (1, 2)
    assert not in_set_S(pair, {1: Q, 2: ZERO})
    violations = in_set_S(pair, {1: ZERO, 2: Q})
    assert violations and "-2N_0" in violations[0]
    # nodes outside I_ns can never carry s
    assert in_set_S(BII, {1: Q})
    # mirrored matrix flips which node may carry s
    b2m = CartanDatum([[2, -2], [-1, 2]])
    pairm = validate_admissible(b2m, set(), {1: 1, 2: 2})
    assert in_set_S(pairm, {1: Q, 2: ZERO})
    assert not in_set_S(pairm, {1: ZERO, 2: Q})


def test_serre_defect_with_s_parameters():
    pair = validate_admissible(B2, set(), {1: 1, 2: 2})
    params = QSPParameters(pair, {1: Q, 2: ONE + Q}, {1: Q ** 2})
    for i, j in [(1, 2), (2, 1)]:
        assert equals(c_closed(params, i, j), c_oracle(params, i, j))
        assert is_zero(serre_projection(params, i, j)[1])


def test_oracle_defect_is_the_projection_cell():
    cases = [
        (QSPParameters(AIV, {1: Q, 3: ONE + Q}), [(1, 2), (2, 1), (1, 3)]),
        (QSPParameters(BII, {1: Q}), [(1, 2), (2, 1)]),
        (QSPParameters(A2_SWAP, {1: Q, 2: ONE + Q}), [(1, 2)]),
    ]
    for params, nodes in cases:
        for i, j in nodes:
            Y = serre_polynomial(
                params.datum, i, j, b_generator(params, i), b_generator(params, j)
            )
            got_y, defect = serre_projection(params, i, j)
            assert defect == Y - c_oracle(params, i, j)
            assert got_y == Y


def _two_product_serre(datum, i, j, x, y):
    """The iterated q-commutator z <- x z - q_i^{m-1-2k} z x, each step as
    two products, a scaling and a difference."""
    m = 1 - datum.a(i, j)
    eps = datum.epsilon(i)
    z = y
    for k in range(m):
        z = x * z - (z * x).scale(Scalar.v_pow(2 * eps * (m - 1 - 2 * k)))
    return z


def test_serre_polynomial_matches_the_two_product_steps():
    """F_ij(B_i, B_j) from one-pass q-commutators equals the two-product
    steps as a dict, for the closed-formula cases and every ordered (i, j)
    of the atlas pairs of A3, B3, C3 and G2 with their sweep parameters."""
    pairs = [(suites._build_pair(*case[:4]), case[4:6]) for case in suites.CLOSED_CASES]
    assert len(pairs) == 13
    for kind, rank in (("A", 3), ("B", 3), ("C", 3), ("G", 2)):
        for pair in enumerate_admissible(cartan_datum(kind, rank)):
            labels = pair.datum.labels
            pairs += [(pair, (i, j)) for i in labels for j in labels if i != j]
    assert len(pairs) == 13 + 30 + 24 + 18 + 4
    for pair, (i, j) in pairs:
        params = suites._default_params(pair)
        x, y = b_generator(params, i), b_generator(params, j)
        got = serre_polynomial(pair.datum, i, j, x, y)
        assert got.terms == _two_product_serre(pair.datum, i, j, x, y).terms


def test_sweep_task_builds_the_serre_polynomial_once(monkeypatch):
    calls = []
    original = uqg.serre_polynomial

    def counting(*args):
        calls.append(args[1:3])
        return original(*args)

    validations = []
    original_validate = suites.validate_admissible

    def counting_validate(*args):
        validations.append(args)
        return original_validate(*args)

    for module in (uqg, qsp_mod, suites):
        monkeypatch.setattr(module, "serre_polynomial", counting)
    monkeypatch.setattr(suites, "validate_admissible", counting_validate)
    checks = suites._serre_group(("A", 3, (2,), ((1, 3),), 10 ** 6))
    assert all(c["ok"] for c in checks)
    cases = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    assert calls == cases
    assert validations == []  # the pair comes from its datum's enumeration


def test_serre_sweep_validates_no_pair(monkeypatch):
    """Every sweep group takes its pair from the enumeration that listed
    it, so the sweep builds no pair of its own."""
    validations = []

    def counting_validate(*args):
        validations.append(args)
        raise AssertionError("the sweep validated a pair")

    for module in (cartan_mod, suites):
        monkeypatch.setattr(module, "validate_admissible", counting_validate)
    monkeypatch.setattr(suites, "_serre_case", lambda params, i, j: (True, ""))
    ok, checks = suites.run_suite("serre-oracle-sweep")
    assert ok and len(checks) == 268
    assert validations == []


def test_sweep_failing_case_becomes_a_record(monkeypatch):
    original = suites.serre_projection

    def failing(params, i, j):
        if (i, j) == (2, 3):
            raise RuntimeError("forced")
        return original(params, i, j)

    monkeypatch.setattr(suites, "serre_projection", failing)
    checks = suites._serre_group(("A", 3, (2,), ((1, 3),), 10 ** 6))
    failed = [c for c in checks if not c["ok"]]
    assert len(checks) == 6
    assert failed == [
        {"id": "serre/A3/X=[2]/tau=[(1, 3)]/(2,3)", "ok": False, "detail": "RuntimeError: forced"}
    ]


def test_sweep_task_carries_its_zero_test_bound(capsys):
    """A worker started by spawn or forkserver inherits no bound, so a
    group enters the one in its task: bound 1 there stops the group outside
    any guard, with no record and no traceback."""
    assert uqg.zero_test_bound.get() == 10 ** 6
    with pytest.raises(uqg.ZeroTestGuardError):
        suites._serre_group(("A", 3, (2,), ((1, 3),), 1))
    assert capsys.readouterr().err == ""


def test_sweep_pool_matches_serial(monkeypatch):
    groups = suites._serre_tasks()[:3]
    monkeypatch.setattr(suites, "_serre_tasks", lambda: groups)
    serial = suites.suite_serre_sweep(jobs=1)
    assert len(serial) == 6
    assert suites.suite_serre_sweep(jobs=2) == serial


def test_twist_is_built_once_per_node(monkeypatch):
    # w_X = s_2 here, so every twist T_{w_X}(E_j), whoever builds it, is one
    # braid application to E_j
    import qcoideal.braid as braid
    from qcoideal.barcheck import check_ocZ, nu_sign

    twisted = []
    original = braid.apply_braid

    def counting(op, a):
        (((e, _k, _f), _c),) = a.terms.items()
        twisted.append(e)
        return original(op, a)

    monkeypatch.setattr(braid, "apply_braid", counting)
    fresh = CartanDatum(cartan_datum("A", 3).A)
    ctx = context_for(validate_admissible(fresh, {2}, {1: 3, 2: 2, 3: 1}))
    for i in (1, 3):
        ctx.theta_fk(i)
        ctx.z(i)
        nu_sign(ctx, i)
        assert check_ocZ(ctx, i)
    assert sorted(twisted) == [(1,), (3,)]


def test_context_is_owned_by_its_pair():
    pair = validate_admissible(A3, {2}, {1: 3, 2: 2, 3: 1})
    ctx = context_for(pair)
    assert context_for(pair) is ctx
    assert context_for(AIV) is not ctx
    ctx.z(1)
    dropped = weakref.ref(pair)
    del pair, ctx
    gc.collect()
    assert dropped() is None


def test_b_generator_is_built_once_per_parameter_set(monkeypatch):
    built = []

    class Counting(dict):
        def __setitem__(self, i, b):
            built.append(i)
            super().__setitem__(i, b)

    original = suites._default_params

    def counting_params(pair):
        params = original(pair)
        params.b = Counting()
        return params

    monkeypatch.setattr(suites, "_default_params", counting_params)
    checks = suites._serre_group(("A", 3, (2,), ((1, 3),), 10 ** 6))
    assert all(c["ok"] for c in checks)
    # serre_projection and c_closed ran for all six ordered (i, j)
    assert sorted(built) == [1, 2, 3]
