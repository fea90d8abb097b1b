import json
import random

import pytest

import qcoideal.barcheck as barcheck
from qcoideal.barcheck import (
    EngineInconsistencyError,
    OutOfScopeError,
    ad_x,
    bar_exists,
    canonical_params,
    check_ocZ,
    corollary_conditions,
    equiv_D,
    equiv_S,
    in_set_D,
    nu_sign,
)
from qcoideal.cartan import (
    CartanDatum,
    cartan_datum,
    enumerate_admissible,
    pair_to_json,
    validate_admissible,
)
from qcoideal.cli import main
from qcoideal.grammar import scalar_to_text
from qcoideal.qsp import (
    MembershipError,
    NoClosedFormulaError,
    QSPParameters,
    b_generator,
    c_closed,
    context_for,
)
from qcoideal.scalars import I_UNIT, ONE, ZERO, Scalar, qshifted_factorial
from qcoideal.suites import ATLAS_DATA
from qcoideal.uqg import Element, bar_element, coproduct, equals, tensor_equals

Q = Scalar.q_pow(1)

A3 = cartan_datum("A", 3)
AIV = validate_admissible(A3, {2}, {1: 3, 2: 2, 3: 1})
CASE2 = validate_admissible(A3, set(), {1: 3, 2: 2, 3: 1})
A2 = cartan_datum("A", 2)
A2_QS = validate_admissible(A2, set(), {1: 1, 2: 2})
B2 = cartan_datum("B", 2)
BII = validate_admissible(B2, {2}, {1: 1, 2: 2})


def test_nu_examples():
    assert nu_sign(context_for(AIV), 1) == 1
    # empty X: the twisted component is the unit, so the sign is +1
    assert nu_sign(context_for(A2_QS), 1) == 1
    aff = cartan_datum("affine:A", 1)
    pair = validate_admissible(aff, {0}, {0: 0, 1: 1})
    assert nu_sign(context_for(pair), 1) == 1  # conjectured value, observed


def test_ell_values():
    ctx = context_for(A2_QS)
    assert ctx.ell(1) == ONE
    ctx = context_for(AIV)
    datum = A3
    for i in (1, 3):
        a = datum.simple_root(i)
        w = datum.weyl_action(AIV.wX_word, a)
        vec = tuple(x - y - z for x, y, z in zip(a, w, AIV.two_rho_X))
        assert ctx.ell(i) == Scalar.v_pow(2 * datum.bilinear(a, vec))
    assert ctx.ell(1) == ctx.ell(3)


def test_bar_of_z():
    assert check_ocZ(context_for(A2_QS), 1)
    assert check_ocZ(context_for(AIV), 1)
    assert check_ocZ(context_for(BII), 1)


def test_bar_exists_worked_cases():
    rep = bar_exists(QSPParameters(AIV, {1: Q, 3: Q}))
    assert rep.exists
    rep = bar_exists(QSPParameters(AIV, {1: Q, 3: Q ** -1}))
    assert not rep.exists
    rep = bar_exists(QSPParameters(AIV, {1: ONE, 3: ONE}))
    assert not rep.exists
    rep = bar_exists(QSPParameters(CASE2, {1: ONE, 2: Q ** -1, 3: ONE}))
    assert rep.exists
    rep = bar_exists(QSPParameters(CASE2, {1: ONE, 2: ONE, 3: ONE}))
    assert not rep.exists and rep.failing_nodes == [2]


def test_isolated_rank_one_component_is_skipped():
    a1a1 = CartanDatum([[2, 0], [0, 2]])
    pair = validate_admissible(a1a1, set(), {1: 1, 2: 2})
    for c1 in (Q ** 5, ONE + Q):
        rep = bar_exists(QSPParameters(pair, {1: c1, 2: Q}))
        assert rep.exists and sorted(rep.skipped_nodes) == [1, 2]


def test_corollary_direct_cases():
    # quasi-split with lambda = 1: c_i = q^{-eps_i}
    params = QSPParameters(A2_QS, {1: Q ** -1, 2: Q ** -1})
    assert corollary_conditions(params).exists
    assert bar_exists(params).exists
    b2qs = validate_admissible(B2, set(), {1: 1, 2: 2})
    params = QSPParameters(b2qs, {1: Q ** -2, 2: Q ** -1})
    assert corollary_conditions(params).exists
    assert bar_exists(params).exists
    # bar-fixed lambda leaves the verdict unchanged
    lam = Q + Q ** -1
    params = QSPParameters(A2_QS, {1: lam * Q ** -1, 2: lam * Q ** -1})
    assert corollary_conditions(params).exists
    assert bar_exists(params).exists
    # break the bar-fixedness of lambda
    params = QSPParameters(A2_QS, {1: Q ** -1 * (ONE + Q), 2: Q ** -1 * (ONE + Q)})
    assert not corollary_conditions(params).exists
    assert not bar_exists(params).exists
    # split-pair condition with an explicit bar twist
    c1 = ONE + Q ** 2
    c3 = Scalar.v_pow(2 * AIV.pairing_theta_2rho(1)) * c1.bar()
    params = QSPParameters(AIV, {1: c1, 3: c3})
    assert corollary_conditions(params).exists
    assert bar_exists(params).exists


def test_corollary_agrees_with_engine_random():
    rng = random.Random(21)
    pool = [ONE, Q, -Q, Q ** -1, Q ** 2, ONE + Q ** 2, (ONE + Q ** 2) * Q ** -1,
            I_UNIT * Q]
    for pair in (AIV, CASE2, BII, A2_QS):
        free = sorted(set(pair.datum.labels) - pair.X)
        for _ in range(20):
            c = {}
            for i in free:
                ti = pair.tau[i]
                if ti in c and ti != i and pair.datum.bilinear(
                    pair.datum.simple_root(i), pair.theta_alpha(i)
                ) == 0:
                    c[i] = c[ti]
                else:
                    c[i] = rng.choice(pool)
            params = QSPParameters(pair, c)
            assert bar_exists(params).exists == corollary_conditions(params).exists


def _agree(params):
    engine = bar_exists(params)
    direct = corollary_conditions(params)
    return (engine.exists, engine.failing_nodes, engine.skipped_nodes) == (
        direct.exists, direct.failing_nodes, direct.skipped_nodes
    )


def test_corollary_agrees_with_engine_on_every_atlas_pair():
    """The engine and the direct conditions agree on the verdict, on the
    failing nodes node by node, and on the skipped nodes (the tau-fixed
    isolated rank-one ones) for every atlas pair with a free node, at
    canonical parameters and at seeded draws."""
    rng = random.Random(16)
    pool = [ONE, Q, -Q, Q ** -1, Q ** 2, ONE + Q ** 2, (ONE + Q ** 2) * Q ** -1,
            I_UNIT * Q]
    for kind, rank in ATLAS_DATA:
        for pair in enumerate_admissible(cartan_datum(kind, rank)):
            if not pair.free:
                continue
            assert _agree(QSPParameters(pair, canonical_params(pair))), pair
            datum = pair.datum
            for _ in range(12):
                c = {}
                for i in pair.free:
                    ti = pair.tau[i]
                    if ti in c and ti != i and datum.bilinear(
                        datum.simple_root(i), pair.theta_alpha(i)
                    ) == 0:
                        c[i] = c[ti]
                    else:
                        c[i] = rng.choice(pool)
                params = QSPParameters(pair, c)
                assert _agree(params), (pair, {i: scalar_to_text(x) for i, x in c.items()})


def test_corollary_agrees_with_engine_on_a_node_whose_neighbours_lie_in_x():
    # C3 with X = {1, 3}: node 2 sees only X, so it is not isolated and both
    # deciders check it
    pair = validate_admissible(cartan_datum("C", 3), {1, 3}, {1: 1, 2: 2, 3: 3})
    for c2 in (ONE, Q ** -1, -Q, ONE + Q ** 2):
        params = QSPParameters(pair, {2: c2})
        assert _agree(params)
        assert corollary_conditions(params).skipped_nodes == []


# a tau-fixed free node with a Cartan entry of -3 towards X, and one with -4
# towards a free node: both leave the proved scope of the presentation
OUT_OF_SCOPE = (
    ([[2, -3, -1], [-1, 2, 0], [-1, 0, 2]], {2, 3},
     "a_12 = -3 with j in X"),
    ([[2, -4], [-1, 2]], set(), "a_12 = -4"),
)


@pytest.mark.parametrize("A, X, entry", OUT_OF_SCOPE)
def test_out_of_scope_pairs_are_refused(A, X, entry, capsys):
    datum = CartanDatum(A)
    pair = validate_admissible(datum, X, {i: i for i in datum.labels})
    params = QSPParameters(pair, {i: ONE for i in pair.free})
    for decide in (bar_exists, corollary_conditions):
        with pytest.raises(OutOfScopeError) as err:
            decide(params)
        assert str(err.value) == f"{entry} leaves the proved scope"
    with pytest.raises(NoClosedFormulaError) as err:
        c_closed(params, 1, 2)
    assert str(err.value) == f"no closed formula in scope: {entry} (general case open)"
    cartan = json.dumps({"A": A})
    args = ["--cartan", cartan, "--pair", json.dumps(pair_to_json(pair)),
            "--params", json.dumps({"c": {str(i): "1" for i in pair.free}}), "bar-exists"]
    assert main(args) == 2
    assert f"error: {entry} leaves the proved scope" in capsys.readouterr().err


def test_canonical_params():
    # quasi-split: d_i = q^{-eps_i}
    d = canonical_params(A2_QS)
    assert d == {1: Q ** -1, 2: Q ** -1}
    d = canonical_params(CASE2)
    assert d == {1: ONE, 2: Q ** -1, 3: ONE}
    for pair in (A2_QS, CASE2, AIV, BII):
        d = canonical_params(pair)
        assert not in_set_D(pair, d)
        assert bar_exists(QSPParameters(pair, d)).exists


def test_equivalence_relations():
    d = canonical_params(AIV)
    assert equiv_D(AIV, d, d)
    d2 = dict(d)
    d2[1] = d[1] * (Q + Q ** -1)
    d2[3] = Scalar.v_pow(2 * AIV.pairing_theta_2rho(1)) * d2[1].bar()
    assert not in_set_D(AIV, d2)
    assert equiv_D(AIV, d, d2)
    d3 = dict(d)
    d3[1] = d[1] * Q ** 2
    d3[3] = Scalar.v_pow(2 * AIV.pairing_theta_2rho(1)) * d3[1].bar()
    assert not in_set_D(AIV, d3)
    assert not equiv_D(AIV, d, d3)  # ratio q^2 is not bar-fixed
    with pytest.raises(MembershipError):
        equiv_D(AIV, d, {1: Q, 3: Q ** 17})
    # s equivalence on the not-orthogonal-to-X tau-fixed nodes
    a1a1 = CartanDatum([[2, 0], [0, 2]])
    pair = validate_admissible(a1a1, set(), {1: 1, 2: 2})
    s1 = {1: Q, 2: ZERO}
    s2 = {1: -Q, 2: ZERO}
    s3 = {1: Q ** 2, 2: ZERO}
    assert equiv_S(pair, s1, s2)
    assert not equiv_S(pair, s1, s3)


def _fresh_aiv():
    """AIV as a new pair, so its context holds no nu read before."""
    return validate_admissible(A3, {2}, {1: 3, 2: 2, 3: 1})


def test_nu_minus_one_negates_ocz_and_rescales_c(monkeypatch):
    """With sigma negated both free nodes of AIV read nu = -1, so bar(Z_i)
    no longer meets +ell_i Z_tau(i), and `corollary_conditions` at c
    decides as the unpatched decider does at c_i / (q - q^{-1})."""
    unpatched = barcheck.sigma
    qdiff = Q - Q ** -1
    split = Scalar.v_pow(2 * AIV.pairing_theta_2rho(1))
    families = ((Q, Q), (Q, Q ** -1), (ONE, ONE), (ONE, -split))
    monkeypatch.setattr(barcheck, "sigma", lambda a: -unpatched(a))
    ctx = context_for(_fresh_aiv())
    assert [nu_sign(ctx, i) for i in (1, 3)] == [-1, -1]
    assert not check_ocZ(ctx, 1) and not check_ocZ(ctx, 3)
    reps = [corollary_conditions(QSPParameters(_fresh_aiv(), {1: c1, 3: c3})) for c1, c3 in families]
    monkeypatch.undo()
    for (c1, c3), rep in zip(families, reps):
        want = corollary_conditions(QSPParameters(_fresh_aiv(), {1: c1 / qdiff, 3: c3 / qdiff}))
        assert rep.rescaled_nodes == [1, 3] and want.rescaled_nodes == []
        assert (rep.verdict, rep.failing_nodes) == (want.verdict, want.failing_nodes)
    assert {rep.verdict for rep in reps} == {"exists", "fails"}


def test_nu_sign_refuses_a_node_in_x_and_a_sign_other_than_one(monkeypatch):
    with pytest.raises(ValueError, match="outside X"):
        nu_sign(context_for(_fresh_aiv()), 2)
    unpatched = barcheck.sigma
    monkeypatch.setattr(barcheck, "sigma", lambda a: unpatched(a).scale(Scalar.gaussian(2)))
    with pytest.raises(EngineInconsistencyError, match="node 1"):
        nu_sign(context_for(_fresh_aiv()), 1)


def test_canonical_set_and_s_equivalence_refusals():
    pair = validate_admissible(cartan_datum("B", 3), {3}, {1: 1, 2: 2, 3: 3})
    assert in_set_D(pair, {}) == ["missing or zero d_1", "missing or zero d_2"]
    d = canonical_params(pair)
    d[1] = d[1] * Q
    assert in_set_D(pair, d) == ["d_1 must be the pinned q-power"]
    with pytest.raises(MembershipError):
        equiv_S(pair, {2: ONE}, {})


def test_ad_x_is_hopf_automorphism():
    xmap = {1: Q, 2: ONE + Q ** 2}
    E1 = Element.E(A2, 1)
    assert ad_x(xmap, E1) == E1.scale(Q)
    beta = (1, -1)
    assert ad_x(xmap, Element.K(A2, beta)) == Element.K(A2, beta)
    rng = random.Random(3)
    gens = [Element.E(A2, 1), Element.E(A2, 2), Element.F(A2, 1), Element.K_i(A2, 2)]
    for _ in range(10):
        a, b = rng.choice(gens), rng.choice(gens)
        assert equals(ad_x(xmap, a * b), ad_x(xmap, a) * ad_x(xmap, b))
    for g in gens:
        lhs = coproduct(ad_x(xmap, g))
        rhs = coproduct(g).map_slot(0, lambda e: ad_x(xmap, e)).map_slot(
            1, lambda e: ad_x(xmap, e)
        )
        assert tensor_equals(lhs, rhs)
    with pytest.raises(ValueError):
        ad_x({1: Q}, E1)


def _split_closed_form(params, i, barred):
    """Closed split-pair right-hand side, optionally with all scalar data
    (coefficients and torus parts) bar-twisted; B factors untouched."""
    pair = params.pair
    datum = params.datum
    ctx = context_for(pair)
    ti = pair.tau[i]
    eps = datum.epsilon(i)
    m = 1 - datum.a(i, ti)
    qi = Scalar.q_pow(eps)
    Bi = b_generator(params, i)
    zi = ctx.z(i).scale(params.c[i])
    zt = ctx.z(ti).scale(params.c[ti])
    c_plus = qi ** -m * qshifted_factorial(qi ** 2, m)
    c_minus = qi * qshifted_factorial(qi ** -2, m)
    pref = -((qi - qi ** -1) ** 2).inverse()
    if barred:
        zi = bar_element(zi)
        zt = bar_element(zt)
        c_plus = c_plus.bar()
        c_minus = c_minus.bar()
        pref = pref.bar()
    Bim = Bi ** (m - 1)
    return ((Bim * zi).scale(c_plus) + (Bim * zt).scale(c_minus)).scale(pref)


def test_bar_twist_preserves_passing_relation():
    pair = validate_admissible(A2, set(), {1: 2, 2: 1})
    good = QSPParameters(pair, {
        1: Q ** 2,
        2: Scalar.v_pow(2 * pair.pairing_theta_2rho(1)) * (Q ** 2).bar(),
    })
    assert bar_exists(good).exists
    assert equals(_split_closed_form(good, 1, False), _split_closed_form(good, 1, True))
    bad = QSPParameters(pair, {1: Q ** 2, 2: Q ** 5})
    assert not bar_exists(bad).exists
    assert not equals(_split_closed_form(bad, 1, False), _split_closed_form(bad, 1, True))


def test_tau_relabel_renames_k_parts_and_is_an_algebra_map():
    """`nu_sign` relabels only K-free elements, so the K path of
    `tau_relabel` is pinned here: on A3 with tau = (1 3) it sends
    K_{alpha_1} E_2 F_3 to K_{alpha_3} E_2 F_1, and products to products."""
    pair = validate_admissible(A3, set(), {1: 3, 2: 2, 3: 1})

    def relabel(a):
        return barcheck.tau_relabel(pair, a)

    E, F, K = (lambda i: Element.E(A3, i)), (lambda i: Element.F(A3, i)), (lambda i, p=1: Element.K_i(A3, i, p))
    assert relabel(K(1) * E(2) * F(3)) == K(3) * E(2) * F(1)
    rng = random.Random(5)
    letters = [E(i) for i in (1, 2, 3)] + [F(i) for i in (1, 2, 3)]
    coeffs = [ONE, Q, -Q ** -2, I_UNIT, (ONE + Q).inverse()]

    def draw():
        x = Element.zero(A3)
        for _ in range(3):
            term = K(rng.choice((1, 2, 3)), rng.choice((-1, 1, 2)))
            for _ in range(rng.randint(1, 3)):
                term = term * rng.choice(letters)
            x = x + term.scale(rng.choice(coeffs))
        return x

    for _ in range(12):
        x, y = draw(), draw()
        assert any(any(k) for _e, k, _f in x.terms)
        assert relabel(x * y) == relabel(x) * relabel(y)
