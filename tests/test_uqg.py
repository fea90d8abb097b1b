import collections
import itertools
import random
from fractions import Fraction
from functools import reduce
from math import factorial
from operator import add, mul, sub

import pytest

from qcoideal.braid import apply_braid, braid_T
from qcoideal.cartan import CartanDatum, cartan_datum
from qcoideal.grammar import element_from_json, parse_element
from qcoideal.scalars import I_UNIT, ONE, ZERO, Scalar, integer_numerators, qbinom_eps, qfact, qint, scalar_sum
from qcoideal.uqg import (
    Element,
    Tensor,
    ZeroTestGuardError,
    _add_shifted,
    _commute,
    _deletions,
    _ef_inverse,
    _gather,
    _good_prefixes,
    _mono_times_E,
    _monomial_coproduct,
    _pack,
    _settle,
    _shift_row,
    _splits,
    _straighten,
    _tensor_of_elements,
    _word_count,
    adjoint_E,
    antipode,
    bar_element,
    coproduct,
    coproduct_graded,
    counit,
    equals,
    is_zero,
    omega,
    q_commutator,
    serre_polynomial,
    sigma,
    skew_ir,
    skew_r,
    tensor_equals,
    tensor_is_zero,
    word_weight,
    zero_test_bound,
    zero_test_guard,
)

Q = Scalar.q_pow(1)
A2 = cartan_datum("A", 2)


def _ref_add(out, key, c):
    """out[key] += c by one Scalar addition, dropping the key when the sum
    is zero: the references' own adder, which shares no summation code with
    the engine."""
    prev = out.get(key)
    s = c if prev is None else prev + c
    if s:
        out[key] = s
    elif prev is not None:
        del out[key]


def _qdiff(datum, i):
    e = datum.epsilon(i)
    return Scalar.q_pow(e) - Scalar.q_pow(-e)


def test_ef_commutator_relation():
    E1, F1 = Element.E(A2, 1), Element.F(A2, 1)
    lhs = E1 * F1 - F1 * E1
    rhs = (Element.K_i(A2, 1) - Element.K_i(A2, 1, -1)).scale(_qdiff(A2, 1).inverse())
    assert lhs == rhs  # straightening makes this syntactic


def test_torus_commutation():
    K1, E2 = Element.K_i(A2, 1), Element.E(A2, 2)
    assert K1 * E2 == (E2 * K1).scale(Q ** -1)


def test_unequal_nodes_commute_without_delta_term():
    E1, F2 = Element.E(A2, 1), Element.F(A2, 2)
    prod = E1 * F2
    assert prod == Element.monomial(A2, (1,), A2.zero_vector(), (2,))


def test_multiplication_is_associative():
    rng = random.Random(2)
    gens = [Element.E(A2, 1), Element.F(A2, 2), Element.K_i(A2, 1),
            Element.E(A2, 2), Element.F(A2, 1)]
    for _ in range(20):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_coproduct_generators():
    E1 = Element.E(A2, 1)
    t = coproduct(E1)
    one = ((), A2.zero_vector(), ())
    k1 = ((), A2.simple_root(1), ())
    assert t.terms == {
        (((1,), A2.zero_vector(), ()), one): ONE,
        (k1, ((1,), A2.zero_vector(), ())): ONE,
    }
    F1 = Element.F(A2, 1)
    t = coproduct(F1)
    kinv = ((), tuple(-x for x in A2.simple_root(1)), ())
    assert t.terms == {
        (((), A2.zero_vector(), (1,)), kinv): ONE,
        (one, ((), A2.zero_vector(), (1,))): ONE,
    }
    beta = (1, -2)
    t = coproduct(Element.K(A2, beta))
    assert t.terms == {(((), beta, ()), ((), beta, ())): ONE}


def test_counit_and_antipode():
    E1, F1 = Element.E(A2, 1), Element.F(A2, 1)
    assert counit(Element.K(A2, (1, 1)) + E1 * F1) == ONE
    assert antipode(Element.K_i(A2, 1)) == Element.K_i(A2, 1, -1)
    # S(F_i) = -F_i K_i, S(E_i) = -K_i^{-1} E_i
    assert equals(antipode(F1), -(F1 * Element.K_i(A2, 1)))
    assert equals(antipode(E1), -(Element.K_i(A2, 1, -1) * E1))


def test_antipode_axiom_on_products():
    rng = random.Random(4)
    gens = [Element.E(A2, 1), Element.E(A2, 2), Element.F(A2, 1), Element.K_i(A2, 2)]
    for _ in range(10):
        x = rng.choice(gens) * rng.choice(gens)
        lhs = coproduct(x).map_slot(0, antipode).contract()
        assert equals(lhs, Element.unit(A2, counit(x)))


def test_bar_examples():
    assert bar_element(Element.K_i(A2, 1).scale(Q)) == Element.K_i(A2, 1, -1).scale(Q ** -1)
    x = Element.E(A2, 1) * Element.E(A2, 2)
    assert bar_element(x) == x
    # bar is an algebra map
    rng = random.Random(9)
    gens = [Element.E(A2, 1), Element.F(A2, 2), Element.K_i(A2, 1).scale(Q)]
    for _ in range(10):
        a, b = rng.choice(gens), rng.choice(gens)
        assert equals(bar_element(a * b), bar_element(a) * bar_element(b))


def test_bar_skew_derivation_intertwiner_on_braid_image():
    u = apply_braid(braid_T(A2, 2), Element.E(A2, 1))  # degree alpha_1 + alpha_2
    beta = (1, 1)
    exponent = A2.bilinear(
        A2.simple_root(1), tuple(a - b for a, b in zip(A2.simple_root(1), beta))
    )
    factor = Scalar.v_pow(2 * exponent)
    lhs = bar_element(skew_r(1, u))
    rhs = skew_ir(1, bar_element(u)).scale(factor)
    assert equals(lhs, rhs)


def test_sigma_omega_examples():
    E1, E2 = Element.E(A2, 1), Element.E(A2, 2)
    assert sigma(E1 * E2) == E2 * E1
    beta = (2, -1)
    assert sigma(Element.K(A2, beta)) == Element.K(A2, tuple(-x for x in beta))
    lhs = omega(E1 * Element.F(A2, 1) - Element.F(A2, 1) * E1)
    rhs = (Element.K_i(A2, 1) - Element.K_i(A2, 1, -1)).scale(_qdiff(A2, 1).inverse())
    assert equals(lhs, -rhs)
    # sigma is an antiautomorphism
    rng = random.Random(6)
    gens = [E1, E2, Element.F(A2, 1), Element.K_i(A2, 2)]
    for _ in range(10):
        a, b = rng.choice(gens), rng.choice(gens)
        assert equals(sigma(a * b), sigma(b) * sigma(a))
        assert equals(sigma(sigma(a)), a)


def test_skew_derivation_examples():
    E1, E2 = Element.E(A2, 1), Element.E(A2, 2)
    assert skew_r(1, E2 * E1) == E2
    assert skew_r(1, E1 * E2) == E2.scale(Q ** -1)
    tw = apply_braid(braid_T(A2, 2), E1)
    assert equals(skew_r(1, tw), E2.scale(ONE - Q ** -2))


def test_skew_derivation_input_checks():
    for skew in (skew_r, skew_ir):
        with pytest.raises(ValueError):
            skew(1, Element.F(A2, 1))
        with pytest.raises(ValueError):
            skew(1, Element.E(A2, 1) + Element.E(A2, 1) * Element.F(A2, 2))
        with pytest.raises(ValueError, match="unknown node label 3"):
            skew(3, Element.E(A2, 1))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "affine:A1"])
def test_skew_derivations_are_linear_on_mixed_weights(name):
    """r_i and _ir are linear maps on all of U^+: on E-only elements x and y
    of different weights, both with torus parts, the image of x + y is the
    sum of the images."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(71)
    checked = 0
    for _ in range(12):
        x, y = (_k_word_element(rng, datum, True) for _ in "xy")
        if word_weight(datum, next(iter(x.terms))[0]) == word_weight(datum, next(iter(y.terms))[0]):
            continue
        checked += 1
        for i in datum.labels:
            for skew in (skew_r, skew_ir):
                assert equals(skew(i, x + y), skew(i, x) + skew(i, y))
    assert checked >= 6


def test_adjoint_action():
    assert adjoint_E(1, Element.one(A2)).terms == {}
    # E_1 F_1 - q_1^{-2} F_1 E_1, restraightened through the commutator rule
    got = adjoint_E(1, Element.F(A2, 1))
    cartan_part = (Element.K_i(A2, 1) - Element.K_i(A2, 1, -1)).scale(
        _qdiff(A2, 1).inverse()
    )
    rhs = (Element.F(A2, 1) * Element.E(A2, 1)).scale(ONE - Q ** -2) + cartan_part
    assert equals(got, rhs)
    x = adjoint_E(1, Element.E(A2, 2))
    target = tuple(a + b for a, b in zip(A2.simple_root(1), A2.simple_root(2)))
    assert all(word_weight(A2, e) == target and not f for (e, _k, f) in x.terms)


def test_is_zero_examples():
    assert is_zero(serre_polynomial(A2, 1, 2, Element.E(A2, 1), Element.E(A2, 2)))
    assert not is_zero(Element.E(A2, 1))
    E1, F1 = Element.E(A2, 1), Element.F(A2, 1)
    x = (E1 * F1 - F1 * E1).scale(_qdiff(A2, 1)) - Element.K_i(A2, 1) + Element.K_i(A2, 1, -1)
    assert x.terms == {}  # straightening makes it syntactically zero
    assert is_zero(x)


def test_is_zero_consistency():
    rng = random.Random(8)
    serre = serre_polynomial(A2, 1, 2, Element.E(A2, 1), Element.E(A2, 2))
    for s in (Q, ONE + Q ** 2, Q ** -3):
        assert is_zero(serre.scale(s))
    a = serre.scale(Q)
    b = serre.scale(ONE + Q)
    assert is_zero(a + b)
    x = Element.E(A2, 1) * Element.E(A2, 2)
    for s in (Q, ONE + Q ** 2):
        assert not is_zero(x.scale(s))


def test_equals_commutator_form():
    x = Element.E(A2, 1) * Element.E(A2, 2) * Element.E(A2, 1)
    for i in (1, 2):
        Fi = Element.F(A2, i)
        lhs = x * Fi - Fi * x
        rhs = (
            skew_r(i, x) * Element.K_i(A2, i)
            - Element.K_i(A2, i, -1) * skew_ir(i, x)
        ).scale(_qdiff(A2, i).inverse())
        assert equals(lhs, rhs)
    assert equals(x, x)


def test_equal_operands_make_no_subtraction_and_no_walk(monkeypatch):
    import qcoideal.uqg as uqg

    calls = []
    sub, walk = uqg._Linear.__sub__, uqg._zero_walk
    monkeypatch.setattr(uqg._Linear, "__sub__", lambda s, t: calls.append("sub") or sub(s, t))
    monkeypatch.setattr(uqg, "_zero_walk", lambda d, t: calls.append("walk") or walk(d, t))
    x = Element.E(A2, 1, 2) * Element.F(A2, 1) + Element.K_i(A2, 2)
    y = Element.E(A2, 1, 2) * Element.F(A2, 1) + Element.K_i(A2, 2)
    assert x is not y and equals(x, y)
    assert tensor_equals(coproduct(x), coproduct(y))
    assert calls == []
    # operands with other terms are still subtracted and walked
    assert not equals(x, Element.E(A2, 1))
    assert calls.count("sub") == 1 and "walk" in calls


def test_equals_decides_other_terms_by_the_walk():
    E1, E2, F1 = Element.E(A2, 1), Element.E(A2, 2), Element.F(A2, 1)
    serre = serre_polynomial(A2, 1, 2, E1, E2)
    # the commutator form, plus a Serre relation times F_1 on the left
    x = E1 * E2 * E1
    lhs = x * F1 - F1 * x + serre * F1
    rhs = (skew_r(1, x) * Element.K_i(A2, 1) - Element.K_i(A2, 1, -1) * skew_ir(1, x)).scale(
        _qdiff(A2, 1).inverse()
    )
    assert lhs != rhs and equals(lhs, rhs)
    assert serre != Element.zero(A2) and equals(serre, Element.zero(A2))
    zero2 = _tensor(Element.zero(A2), F1)
    assert _tensor(serre, F1) != zero2 and tensor_equals(_tensor(serre, F1), zero2)
    # operands that differ in U_q
    assert not equals(E1 * E2, E2 * E1)
    assert not equals(serre.scale(Q) + F1, serre)
    assert not tensor_equals(_tensor(E1, F1), _tensor(F1, E1))
    assert not tensor_equals(_tensor(serre + E2, F1), _tensor(serre, F1))


def test_word_count_is_the_multinomial_coefficient():
    counts = {(0, 0): 1, (1,): 1, (2, 1): 3, (1, 1, 1): 6, (2, 2): 6, (3, 2, 1): 60}
    for wt, count in counts.items():
        assert _word_count(wt) == count, wt


def test_skew_r_matches_coproduct_extraction():
    rng = random.Random(12)
    for datum in (A2, cartan_datum("B", 2)):
        for _ in range(50):
            w = tuple(rng.choice(datum.labels) for _ in range(rng.randint(1, 4)))
            x = Element.E(datum, *w)
            i = rng.choice(datum.labels)
            alpha = datum.simple_root(i)
            cell = coproduct_graded(x, alpha)
            single = ((i,), datum.zero_vector(), ())
            got = Element.zero(datum)
            for (m1, m2), c in cell.terms.items():
                if m2 == single and m1[1] == alpha:
                    got = got + Element.monomial(datum, m1[0], datum.zero_vector(), m1[2], c)
            assert equals(got, skew_r(i, x))


def test_coassociativity_random():
    rng = random.Random(13)
    gens = [Element.E(A2, 1), Element.E(A2, 2), Element.F(A2, 1), Element.K_i(A2, 1)]
    for _ in range(6):
        x = rng.choice(gens) * rng.choice(gens)
        t = coproduct(x)
        assert tensor_equals(t.coproduct_slot(0), t.coproduct_slot(1))


def test_zero_test_guard():
    x = Element.E(A2, *([1] * 6 + [2] * 6))
    with pytest.raises(ZeroTestGuardError), zero_test_guard(10):
        is_zero(x)


def test_zero_test_guard_restores_the_previous_bound():
    default = zero_test_bound.get()
    with pytest.raises(ZeroTestGuardError), zero_test_guard(10):
        is_zero(Element.E(A2, *([1] * 6 + [2] * 6)))
    assert zero_test_bound.get() == default
    with zero_test_guard(7):
        with zero_test_guard(3):
            assert zero_test_bound.get() == 3
            with zero_test_guard(1):
                assert zero_test_bound.get() == 1
            assert zero_test_bound.get() == 3
        assert zero_test_bound.get() == 7
    assert zero_test_bound.get() == default


def test_zero_test_guard_checks_each_bucket_in_turn():
    """Buckets are walked in the order of their first terms, and each one
    meets the guard just before it is walked: a small nonzero bucket
    first decides False, a bucket over the guard first raises."""
    import inspect

    import qcoideal.uqg as uqg

    big = Element.E(A2, *([1] * 6 + [2] * 6))
    for coeff in (ONE, Scalar.gaussian(2, -3)):
        small = Element.E(A2, 1).scale(coeff)
        assert list((small + big).terms)[0] == ((1,), (0, 0), ())
        with zero_test_guard(10):
            assert not is_zero(small + big)
            with pytest.raises(ZeroTestGuardError):
                is_zero(big + small)
    assert inspect.getsource(uqg).count("zero_test_bound.get()") == 1


def _random_element(rng, datum, terms=3):
    out = Element.zero(datum)
    for _ in range(terms):
        e = tuple(rng.choice(datum.labels) for _ in range(rng.randint(0, 2)))
        k = tuple(rng.randint(-1, 1) for _ in range(datum.n))
        f = tuple(rng.choice(datum.labels) for _ in range(rng.randint(0, 2)))
        out = out + Element.monomial(datum, e, k, f, Scalar.q_pow(rng.randint(-2, 2)))
    return out


def _tensor(*elems):
    return _tensor_of_elements(list(elems))


def test_graded_cells_partition_the_coproduct():
    rng = random.Random(21)
    for datum in (A2, cartan_datum("B", 2)):
        for _ in range(8):
            x = _random_element(rng, datum)
            full = coproduct(x)
            assert coproduct_graded(x, None) == full
            degrees = {x.degree_of_key(m2) for (_m1, m2) in full.terms}
            merged = {}
            for d in degrees:
                cell = coproduct_graded(x, d)
                assert cell.terms and not merged.keys() & cell.terms.keys()
                merged.update(cell.terms)
            assert merged == full.terms
            absent = tuple(c + 5 for c in datum.zero_vector())
            assert coproduct_graded(x, absent).terms == {}


def test_tensor_zero_test_reduces_through_every_factor():
    E1, E2, F1 = Element.E(A2, 1), Element.E(A2, 2), Element.F(A2, 1)
    assert not tensor_is_zero(_tensor(E1 * E2 - E2 * E1, F1))
    serre = serre_polynomial(A2, 1, 2, E1, E2)
    assert serre.terms
    assert tensor_is_zero(_tensor(serre, F1))


def test_tensor_zero_test_guards_the_last_factor():
    t = _tensor(Element.E(A2, 1), Element.E(A2, *([1] * 6 + [2] * 6)))
    with pytest.raises(ZeroTestGuardError), zero_test_guard(10):
        tensor_is_zero(t)


def test_is_zero_agrees_with_the_tensor_of_one_factor():
    rng = random.Random(22)
    serre = serre_polynomial(A2, 1, 2, Element.E(A2, 1), Element.E(A2, 2))
    samples = [serre, serre.scale(Q) + Element.F(A2, 2), Element.zero(A2)]
    samples += [_random_element(rng, A2) for _ in range(10)]
    samples += [serre * x for x in samples[3:6]] + [x * serre for x in samples[3:6]]
    for x in samples:
        assert is_zero(x) == tensor_is_zero(_tensor(x))
    assert is_zero(serre) and not is_zero(samples[1])


def _ref_zero_walk(datum, terms):
    """The zero walk on Scalar coefficients: each deletion shifts a Scalar
    and each sum is normalised.  `terms` maps (prefix, key) to a Scalar, as
    for `uqg._zero_walk`."""
    limit = zero_test_bound.get()
    buckets = {}
    for (prefix, (e, k, f)), c in terms.items():
        bkey = (word_weight(datum, e), k, word_weight(datum, f))
        buckets.setdefault(bkey, {})[(prefix, e, f)] = c
    for (ewt, _k, fwt), bucket in buckets.items():
        count = _word_count(ewt) * _word_count(fwt)
        if count > limit:
            raise ZeroTestGuardError(f"bucket with {count} dual-word evaluations exceeds guard {limit}")
        if not _ref_reduce_bucket(datum, bucket, ewt, fwt):
            return False
    return True


def _ref_reduce_bucket(datum, terms, ewt, fwt, path=(), good=None):
    if not terms:
        return True
    if not any(ewt) and not any(fwt):
        rest = {}
        for (prefix, _e, _f), c in terms.items():
            _ref_add(rest, prefix, c)
        if () in rest:
            return False
        return _ref_zero_walk(datum, {(p[:-1], p[-1]): c for p, c in rest.items()})
    side = 0 if any(ewt) else 1
    wt = ewt if side == 0 else fwt
    if not path:
        good = _good_prefixes(datum, wt)
    for p, cnt in enumerate(wt):
        if not cnt:
            continue
        i = datum.labels[p]
        npath = path + (i,)
        if good is not None and npath not in good:
            continue
        img = {}
        for (prefix, e, f), c in terms.items():
            for x, nw in _deletions(datum, (e, f)[side], i):
                _ref_add(img, (prefix, nw, f) if side == 0 else (prefix, e, nw), c.shifted(x))
        nwt = tuple(c - (1 if t == p else 0) for t, c in enumerate(wt))
        if not any(nwt):
            npath = ()
        ok = (_ref_reduce_bucket(datum, img, nwt, fwt, npath, good)
              if side == 0 else _ref_reduce_bucket(datum, img, ewt, nwt, npath, good))
        if not ok:
            return False
    return True


def _ref_is_zero(x):
    if isinstance(x, Tensor):
        return _ref_zero_walk(x.datum, {(keys[:-1], keys[-1]): c for keys, c in x.terms.items()})
    return _ref_zero_walk(x.datum, {((), key): c for key, c in x.terms.items()})


def test_integer_walk_matches_the_scalar_walk():
    """The walk on integer polynomials under one common scale gives the
    verdicts of the walk on Scalars, on Elements and on Tensors of arity 2
    and 3 whose coefficients are Gaussian, Fractions, over Phi_k and over
    the cofactor v^2 + 3, mixed in one sum."""
    V = Scalar.v_pow(1)
    coeffs = [
        Scalar.gaussian(2, -3), I_UNIT * V - ONE,
        Scalar.gaussian(Fraction(3, 7)), Scalar.gaussian(Fraction(1, 2), Fraction(-5, 3)),
        qint(3).inverse() * Q, (Q - Q ** -1).inverse(), qint(2).inverse() * I_UNIT,
        (V ** 2 + Scalar.gaussian(3)).inverse(), (V ** 2 + Scalar.gaussian(3)).inverse() * qint(2).inverse(),
    ]
    rng = random.Random(23)
    for datum in (A2, cartan_datum("B", 2)):
        E1, E2, F1, F2 = (g(datum, i) for g in (Element.E, Element.F) for i in (1, 2))
        K1 = Element.K_i(datum, 1)
        x, serre = E1 * E2 * E1, serre_polynomial(datum, 1, 2, E1, E2)
        # the commutator form straightens to no terms; a Serre relation
        # times F_1 gives the walk something to decide
        commutator = x * F1 - F1 * x + serre * F1 - (
            skew_r(1, x) * K1 - Element.K_i(datum, 1, -1) * skew_ir(1, x)
        ).scale(_qdiff(datum, 1).inverse())
        relations = [serre, serre_polynomial(datum, 2, 1, F2, F1), commutator]
        assert all(r.terms and is_zero(r) for r in relations)
        zeros, nonzeros = [], []
        for _ in range(6):
            a, b, c = (rng.choice(coeffs) for _ in range(3))
            r, s = rng.sample(relations, 2)
            zero = r.scale(a) + (s * F2).scale(b) + (E2 * r).scale(c)
            key = rng.choice(list(zero.terms))
            bump = Element.monomial(datum, *key, coeff=rng.choice(coeffs))
            tensors = [_tensor(zero, F1 + K1), _tensor(E1, r).scale(a) + _tensor(s, K1).scale(b),
                       _tensor(E2, zero, F1.scale(c)), _tensor(r, E1, K1).scale(a) + _tensor(F2, F1, s).scale(b)]
            zeros += [zero] + tensors
            nonzeros += [zero + bump, _tensor(zero + bump, F1), _tensor(E1, E2, zero + bump),
                         tensors[1] + _tensor(E1, bump).scale(c), tensors[3] + _tensor(F2, F1, bump)]
        for y in zeros:
            assert y.terms and _ref_is_zero(y) and (tensor_is_zero if isinstance(y, Tensor) else is_zero)(y)
        for y in nonzeros:
            assert not _ref_is_zero(y) and not (tensor_is_zero if isinstance(y, Tensor) else is_zero)(y)


def _ref_add_shifted(out, key, p, x):
    """out[key] += v^x p for integer polynomials {exponent: int} of
    `integer_numerators`, one exponent at a time, in place, dropping the key
    when the sum is zero: the dict walk's adder, the reference for the
    packed `uqg._add_shifted`."""
    acc = out.setdefault(key, {})
    for e, c in p.items():
        e += 2 * x
        c += acc.pop(e, 0)
        if c:
            acc[e] = c
    if not acc:
        del out[key]


def _use_dict_walk(setattr):
    """Run the zero walk on the dicts of `integer_numerators`, unpacked,
    adding them with `_ref_add_shifted`; `setattr` is the builtin or a
    monkeypatch's."""
    import qcoideal.uqg as uqg

    setattr(uqg, "_pack", lambda polys: polys)
    setattr(uqg, "_add_shifted", _ref_add_shifted)


def _unpack(n, lo, b):
    """The integer polynomial of a packed value (N, lo, b), read off in
    balanced digits of b bits."""
    out, k, mask, half = {}, lo, (1 << b) - 1, 1 << (b - 1)
    while n:
        c = n & mask
        if c >= half:
            c -= 1 << b
        if c:
            out[k] = c
        n = (n - c) >> b
        k += 1
    return out


def test_pack_is_exact_at_its_digit_bound():
    """At the width chosen for a Serre relation of B2 with Gaussian
    coefficients, every coefficient the walk can meet is below 2^(b - 2),
    and a polynomial whose coefficients reach +-(2^(b - 1) - 1), at negative
    and odd (imaginary) exponents, packs to a nonzero value that unpacks to
    itself and cancels exactly against its negative."""
    B2 = cartan_datum("B", 2)
    E1, E2 = Element.E(B2, 1), Element.E(B2, 2)
    x = serre_polynomial(B2, 1, 2, E1, E2).scale(Scalar.gaussian(3, -2)) + (E2 * E1).scale(I_UNIT)
    polys = integer_numerators({((), key): c for key, c in x.terms.items()})
    packed = _pack(polys)
    assert packed.keys() == polys.keys()
    (b,) = {w for _n, _lo, w in packed.values()}
    l1 = sum(abs(c) for p in polys.values() for c in p.values())
    paths = max(factorial(len(e)) * factorial(len(f)) for _prefix, (e, _k, f) in polys)
    assert l1 * paths < 2 ** (b - 2) <= 2 * l1 * paths
    for key, (n, lo, _b) in packed.items():
        assert _unpack(n, lo, b) == polys[key]

    def pack(p):
        """p packed as `_pack` packs it, in digits of b bits."""
        lo = min(p)
        return sum(c << b * (k - lo) for k, c in p.items()), lo, b

    top = 2 ** (b - 1) - 1
    p = {-5: top, -2: -top, -1: 1, 0: -1, 3: top, 6: -top}
    n, lo, _b = pack(p)
    assert n and _unpack(n, lo, b) == p
    out = {}
    _add_shifted(out, "p", (n, lo, b), 3)
    assert _unpack(*out["p"]) == {k + 6: c for k, c in p.items()}
    m, mlo, _b = pack({k + 6: -c for k, c in p.items()})
    _add_shifted(out, "p", (m, mlo - 4, b), 2)
    assert not out


def test_pack_skips_empty_polynomials():
    key = ((), ((1,), (0, 0), ()))
    assert _pack({key: {}}) == {}
    assert _pack({key: {}, ((), ((), (0, 0), ())): {1: -1}}).keys() == {((), ((), (0, 0), ()))}
    assert _pack({}) == {}


def test_packed_walk_matches_the_dict_walk():
    """The packed walk and the dict walk give one verdict on random
    Elements of A2 and on Tensors of two factors, with Gaussian
    coefficients times powers of v, a Serre relation in each so that zero
    verdicts occur."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    serre = serre_polynomial(A2, 1, 2, Element.E(A2, 1), Element.E(A2, 2))
    gauss = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any)
    coeff = st.tuples(gauss, st.integers(-3, 3)).map(lambda t: Scalar.gaussian(*t[0]) * Scalar.v_pow(t[1]))
    word = st.lists(st.sampled_from(A2.labels), max_size=2).map(tuple)
    torus = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    monomial = st.builds(lambda e, k, f, c: Element.monomial(A2, e, k, f, c), word, torus, word, coeff)
    element = st.builds(lambda ms, c: reduce(add, ms, serre.scale(c)), st.lists(monomial, max_size=2), coeff)
    tensor = st.builds(lambda a, b, c, m: _tensor(a, serre.scale(c)) + _tensor(m, b), element, element, coeff,
                       st.one_of(st.just(Element.zero(A2)), monomial))

    def verdicts(xs):
        return [tensor_is_zero(x) if isinstance(x, Tensor) else is_zero(x) for x in xs]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(element, tensor), min_size=1, max_size=4))
    def check(xs):
        packed = verdicts(xs)
        with pytest.MonkeyPatch.context() as mp:
            _use_dict_walk(mp.setattr)
            assert verdicts(xs) == packed

    check()
    seen = verdicts([serre, serre + Element.E(A2, 1).scale(I_UNIT), _tensor(Element.F(A2, 1), serre)])
    assert seen == [True, False, True]


def test_elements_of_two_data_do_not_mix():
    a, b = cartan_datum("A", 2), CartanDatum(cartan_datum("A", 2).A)
    x, y = Element.E(a, 1), Element.E(b, 1)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y
    with pytest.raises(ValueError):
        x - y
    # equal term dicts over two data are not equal elements
    assert x.terms == y.terms
    with pytest.raises(ValueError):
        equals(x, y)
    with pytest.raises(ValueError):
        tensor_equals(coproduct(x), coproduct(y))
    with pytest.raises(ValueError):
        coproduct(x) + coproduct(y)
    with pytest.raises(ValueError):
        coproduct(x).as_element()
    # tensors of one datum but different arities
    t2 = coproduct(x)
    t3 = t2.coproduct_slot(0)
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t, tensor_equals):
        with pytest.raises(ValueError):
            op(t2, t3)
        with pytest.raises(ValueError):
            op(t3, t2)
    with pytest.raises(ValueError):
        tensor_equals(Tensor(a, 2, {}), Tensor(a, 3, {}))
    # an element is not a tensor of one factor for the linear operations
    with pytest.raises(ValueError):
        x + _tensor(x)


def test_k_i_refuses_an_inexact_power():
    for power in (0.5, 1.0, True):
        with pytest.raises(ValueError, match="K-vector entry"):
            Element.K_i(A2, 1, power)
    assert Element.K_i(A2, 2, -3) == Element.K(A2, (0, -3))


def test_k_refuses_a_vector_of_the_wrong_length():
    """K_(1,0,5) on A2 used to multiply as K_(1,0): the product zips the
    vectors and drops the third entry."""
    for beta in ((1, 0, 5), (1,), ()):
        with pytest.raises(ValueError, match="entries, not 2"):
            Element.K(A2, beta)
    with pytest.raises(ValueError, match="K-vector entry"):
        Element.K(A2, (1, 0.0))


def test_monomial_checks_its_letters_and_k_vector():
    """Letters are checked as `E` and `F` check theirs, and the K-vector as
    `K` checks it, also when the coefficient is zero."""
    bad = (((3,), (0, 0), ()), ((), (0, 0), (1, 0)), ((), (0, 0, 0), ()), ((), (0.5, 0), (1,)))
    for e, k, f in bad:
        for coeff in (ONE, ZERO):
            with pytest.raises(ValueError):
                Element.monomial(A2, e, k, f, coeff)
    got = Element.monomial(A2, [1], [0, 1], [2])
    assert got == Element.E(A2, 1) * Element.K(A2, (0, 1)) * Element.F(A2, 2)


def _serre_binomial(datum, i, j, x, y):
    """The Serre polynomial in its binomial form,
    sum_n (-1)^n [m choose n]_{q_i} x^{m-n} y x^n with m = 1 - a_ij."""
    m = 1 - datum.a(i, j)
    eps = datum.epsilon(i)
    out = Element.zero(datum)
    for n in range(m + 1):
        coeff = qbinom_eps(m, n, eps)
        if n % 2:
            coeff = -coeff
        out = out + (x ** (m - n) * y * x ** n).scale(coeff)
    return out


def _ref_serre_polynomial(datum, i, j, x, y):
    """F_ij(x, y) as the iterated q-commutator z <- x z - q_i^{m-1-2k} z x
    for k = 0..m-1 in ascending order, starting from z = y, whatever the
    lengths of x and y."""
    m = 1 - datum.a(i, j)
    eps = datum.epsilon(i)
    z = y
    for k in range(m):
        z = q_commutator(x, z, 2 * eps * (m - 1 - 2 * k))
    return z


def test_serre_polynomial_matches_the_binomial_form():
    """The iterated q-commutator has the terms of the binomial form, for
    a_ij = 0, -1, -2, -3 and non-homogeneous x, y with E, K and F parts,
    with x shorter than y (factors in ascending order), as long and longer
    (descending order)."""
    V = Scalar.v_pow(1)
    coeffs = [ONE, Q, (V ** 2 + Scalar.gaussian(3)).inverse(), qint(2).inverse(), I_UNIT * V - ONE]

    def draw(rng, datum, i, size=3):
        """The first `size` of c E_i K, c F_i K and c K, for random c and K."""
        out = Element.zero(datum)
        for e, f in (((i,), ()), ((), (i,)), ((), ()))[:size]:
            k = tuple(rng.randint(-1, 1) for _ in range(datum.n))
            out = out + Element.monomial(datum, e, k, f, rng.choice(coeffs))
        return out

    rng = random.Random(10)
    a1xa1 = CartanDatum([[2, 0], [0, 2]])
    b2, g2 = cartan_datum("B", 2), cartan_datum("G", 2)
    cases = [(a1xa1, 1, 2), (A2, 1, 2), (b2, 1, 2), (b2, 2, 1), (g2, 1, 2), (g2, 2, 1)]
    assert sorted({d.a(i, j) for d, i, j in cases}) == [-3, -2, -1, 0]
    for datum, i, j in cases:
        x, y = draw(rng, datum, i), draw(rng, datum, j)
        new = serre_polynomial(datum, i, j, x, y)
        assert new.terms and new == _serre_binomial(datum, i, j, x, y)
    # x shorter than y, and longer
    for datum, i, j in cases:
        for sizes in ((1, 3), (1, 2), (3, 1)):
            x, y = draw(rng, datum, i, sizes[0]), draw(rng, datum, j, sizes[1])
            assert (len(x.terms), len(y.terms)) == sizes
            new = serre_polynomial(datum, i, j, x, y)
            assert new.terms and new == _serre_binomial(datum, i, j, x, y)
    # the Serre relation itself, on the generators
    for datum, i, j in cases:
        Ei, Ej = Element.E(datum, i), Element.E(datum, j)
        assert serre_polynomial(datum, i, j, Ei, Ej) == _serre_binomial(datum, i, j, Ei, Ej)


def test_serre_polynomial_matches_the_ascending_order_on_b_generators():
    """F_ij(B_i, B_j) has the terms of the ascending order, key for key, on
    the closed-formula cases and every ordered (i, j) of every admissible
    pair of A3 and B3: with i in X, where x = F_i is the shorter factor,
    with j in X, where B_i is at least as long, and with both free, where
    B_i can be longer than B_j or shorter."""
    from qcoideal.cartan import enumerate_admissible
    from qcoideal.qsp import b_generator
    from qcoideal.suites import CLOSED_CASES, _build_pair, _default_params

    cases = [(_default_params(_build_pair(*case[:4])), *case[4:6]) for case in CLOSED_CASES]
    for kind in ("A", "B"):
        for pair in enumerate_admissible(cartan_datum(kind, 3)):
            params = _default_params(pair)
            cases += [(params, i, j) for i, j in itertools.permutations(pair.datum.labels, 2)]
    seen = set()
    for params, i, j in cases:
        datum, X = params.datum, params.pair.X
        x, y = b_generator(params, i), b_generator(params, j)
        seen.add((i in X, j in X, len(x.terms) < len(y.terms)))
        got = serre_polynomial(datum, i, j, x, y)
        assert got.terms and got.terms == _ref_serre_polynomial(datum, i, j, x, y).terms
    assert {(True, False, True), (False, True, False), (False, False, False), (False, False, True)} <= seen


def test_serre_polynomial_cancels_the_torus_part_at_the_first_step(monkeypatch):
    """On D4, X = {1, 2, 3}, tau = (1 3), F_42(B_4, F_2) builds
    intermediates of 18 and 514 terms: its first factor, k = m - 1, cancels
    the leading parts of B_4's torus terms against F_2, where the first
    factor of the ascending order, k = 0, leaves 34 terms.  F_24(F_2, B_4)
    runs up from k = 0, which cancels them against F_2, and builds 18 and
    15 terms, where k = m - 1 first leaves 34.  On B3, X = {3}, both nodes
    free, F_12(B_1, B_2) runs up from k = 0 against the longer B_2 and
    builds 9 and 16 terms, where k = m - 1 first leaves 11."""
    import qcoideal.uqg as uqg
    from qcoideal.qsp import b_generator
    from qcoideal.suites import _build_pair, _default_params

    params = _default_params(_build_pair("D", 4, (1, 2, 3), ((1, 3),)))
    datum = params.datum
    b4, f2 = b_generator(params, 4), b_generator(params, 2)
    assert (len(b4.terms), len(f2.terms), datum.a(4, 2), datum.a(2, 4)) == (17, 1, -1, -1)
    sizes = []
    original = uqg.q_commutator

    def counting(x, y, s):
        z = original(x, y, s)
        sizes.append(len(z.terms))
        return z

    b3 = _default_params(_build_pair("B", 3, (3,), ()))
    b1, b2 = b_generator(b3, 1), b_generator(b3, 2)
    assert (len(b1.terms), len(b2.terms), b3.datum.a(1, 2)) == (2, 4, -1)
    monkeypatch.setattr(uqg, "q_commutator", counting)
    for (d, i, j, x, y), want in (((datum, 4, 2, b4, f2), [18, 514]), ((datum, 2, 4, f2, b4), [18, 15]),
                                  ((b3.datum, 1, 2, b1, b2), [9, 16])):
        sizes.clear()
        got = serre_polynomial(d, i, j, x, y)
        assert sizes == want
        assert got.terms == _ref_serre_polynomial(d, i, j, x, y).terms
    monkeypatch.undo()
    # the first factor of the other order: k = 0 for B_4 against F_2, and
    # k = m - 1, v^{-2 eps_i}, for F_2 against B_4 and B_1 against B_2
    assert len(q_commutator(b4, f2, 2).terms) == len(q_commutator(f2, b4, -2).terms) == 34
    assert len(q_commutator(b1, b2, -2 * b3.datum.epsilon(1)).terms) == 11


def test_sigma_of_f_free_terms_is_the_straightened_product():
    """sigma(E_e K_k) = K_{-k} E_{rev e}, key for key, for random F-free
    elements."""
    rng = random.Random(11)
    for datum in (A2, cartan_datum("B", 2), cartan_datum("G", 2)):
        for _ in range(6):
            x = Element.zero(datum)
            for _ in range(4):
                e = tuple(rng.choice(datum.labels) for _ in range(rng.randint(0, 3)))
                k = tuple(rng.randint(-2, 2) for _ in range(datum.n))
                x = x + Element.monomial(datum, e, k, (), Scalar.q_pow(rng.randint(-2, 2)) + ONE)
            expected = Element.zero(datum)
            for (e, k, _f), c in x.terms.items():
                mk = tuple(-b for b in k)
                expected = expected + (Element.K(datum, mk) * Element.E(datum, *reversed(e))).scale(c)
            assert sigma(x) == expected


def _letter_by_letter_coproduct(a):
    """The coproduct as the product of the generators' coproducts, one
    letter at a time: (E_e K_k F_f) is multiplied out as Delta(E_{e_1}) ...
    Delta(K_k) Delta(F_{f_1}) ..., each factor by straightening."""
    datum = a.datum
    one = ((), datum.zero_vector(), ())
    terms = {}
    for (e, k, f), c in a.terms.items():
        cur = {(one, one): c}
        for kind, arg in [("E", i) for i in e] + [("K", k)] + [("F", j) for j in f]:
            if kind == "E":
                gen = [(((arg,), datum.zero_vector(), ()), one),
                       (((), datum.simple_root(arg), ()), ((arg,), datum.zero_vector(), ()))]
            elif kind == "K":
                gen = [(((), arg, ()), ((), arg, ()))]
            else:
                minus = tuple(-x for x in datum.simple_root(arg))
                gen = [(((), datum.zero_vector(), (arg,)), ((), minus, ())),
                       (one, ((), datum.zero_vector(), (arg,)))]
            nxt = {}
            for (m1, m2), cc in cur.items():
                for g1, g2 in gen:
                    p1 = Element(datum, {m1: cc}) * Element(datum, {g1: ONE})
                    p2 = Element(datum, {m2: ONE}) * Element(datum, {g2: ONE})
                    for k1, c1 in p1.terms.items():
                        for k2, c2 in p2.terms.items():
                            s = nxt.get((k1, k2))
                            nxt[(k1, k2)] = c1 * c2 if s is None else s + c1 * c2
            cur = {key: cc for key, cc in nxt.items() if cc}
        for key, cc in cur.items():
            s = terms[key] + cc if key in terms else cc
            if s:
                terms[key] = s
            else:
                del terms[key]
    return terms


def _ref_monomial_coproduct(datum, m, target):
    """`_monomial_coproduct` with every monomial, one-sided ones included,
    expanded by the split of both words and the join of the two sides on
    the degree."""
    e, k, f = m
    wf = word_weight(datum, f)
    if target is None:
        es, fs = _splits(datum, e, 1, None, None), _splits(datum, f, -1, None, None)
    else:
        es = _splits(datum, e, 1, target, tuple(map(add, target, wf)))
        if not es:
            return []
        need = [tuple(map(sub, wt, target)) for _, _, wt in es]
        fs = _splits(datum, f, -1, tuple(map(min, zip(*need))), tuple(map(max, zip(*need))))
    k2 = tuple(map(sub, k, wf))
    by_degree = {}
    for (stay, moved, wt), pf in fs.items():
        part = (stay, tuple(map(add, k2, wt)), moved, pf)
        by_degree.setdefault(None if target is None else wt, []).append(part)
    out = []
    for (rest, moved, wt), pe in es.items():
        k1 = tuple(map(add, k, wt))
        degree = None if target is None else tuple(map(sub, wt, target))
        for stay, k2t, fmoved, pf in by_degree.get(degree, ()):
            out.append((((rest, k1, stay), (moved, k2t, fmoved)), pe * pf))
    return out


def _word_element(rng, datum, coeffs=None, words="EF"):
    """Two to four monomials whose E- and F-words repeat letters, with K
    parts and Scalar coefficients drawn from coeffs, by default some with a
    denominator; the E-word (F-word) is empty unless "E" ("F") is in
    `words`."""
    if coeffs is None:
        coeffs = [ONE, Q, Scalar.gaussian(3), qint(2).inverse(), (Q - Q ** -1).inverse()]
    out = Element.zero(datum)
    for _ in range(rng.randint(2, 4)):
        labels = datum.labels[:2] if rng.random() < 0.5 else datum.labels
        e = tuple(rng.choice(labels) for _ in range(rng.randint(0, 4))) if "E" in words else ()
        k = tuple(rng.randint(-1, 1) for _ in range(datum.n))
        f = tuple(rng.choice(labels) for _ in range(rng.randint(0, 3))) if "F" in words else ()
        out = out + Element.monomial(datum, e, k, f, rng.choice(coeffs))
    return out


def _grouped_element(rng, datum, coeffs=None):
    """Three to five terms of one K-part and one F-word of length 0-2, with
    distinct E-words of length 0-3 that repeat letters, beside one or two
    terms whose F-words have length 1-3: a factor whose group an F-word of
    the other factor passes at once, and whose own F-words pass the other
    factor's groups.  Coefficients as in `_word_element`."""
    if coeffs is None:
        coeffs = [ONE, Q, Scalar.gaussian(3), qint(2).inverse(), (Q - Q ** -1).inverse()]
    labels = datum.labels[:2]
    k = tuple(rng.randint(-1, 1) for _ in range(datum.n))
    f = tuple(rng.choice(labels) for _ in range(rng.randint(0, 2)))
    size, es = rng.randint(3, 5), set()
    while len(es) < size:
        es.add(tuple(rng.choice(labels) for _ in range(rng.randint(0, 3))))
    out = Element.zero(datum)
    for e in sorted(es):
        out = out + Element.monomial(datum, e, k, f, rng.choice(coeffs))
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.choice(labels) for _ in range(rng.randint(0, 2)))
        fk = tuple(rng.randint(-1, 1) for _ in range(datum.n))
        f1 = tuple(rng.choice(datum.labels) for _ in range(rng.randint(1, 3)))
        out = out + Element.monomial(datum, e, fk, f1, rng.choice(coeffs))
    return out


def _grouped_pairs(x, y):
    """The terms of x with F-letters times the groups of at least three
    terms of y that share K-part and F-word: the products of x y that pass
    an F-word over a whole group."""
    sizes = collections.Counter((k, f) for _e, k, f in y.terms)
    return sum(1 for _e, _k, f in x.terms if f) * sum(1 for n in sizes.values() if n >= 3)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "D4", "affine:A1"])
def test_coproduct_matches_the_letter_by_letter_product(name):
    """The subset expansion of each monomial equals the product of the
    generators' coproducts, term for term and in the same order, for the
    whole coproduct, every graded cell present and two absent cells, one
    above zero and one with a negative entry, on elements with both words
    and on elements that have only E-words, only F-words or only K parts,
    which expand one word or none."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(23)
    zero = datum.zero_vector()
    absent = [tuple(c + 5 for c in zero), (-5,) + zero[1:]]
    for words in ["EF"] * 6 + ["E", "F", ""]:
        x = _word_element(rng, datum, words=words)
        sides = {side for e, _k, f in x.terms for side, word in (("E", e), ("F", f)) if word}
        assert sides == set(words) or words == "EF"
        want = _letter_by_letter_coproduct(x)
        assert list(coproduct(x).terms.items()) == list(want.items())
        degrees = {x.degree_of_key(m2) for _m1, m2 in want}
        assert not degrees & set(absent)
        for d in sorted(degrees) + absent:
            cell = [(key, c) for key, c in want.items() if x.degree_of_key(key[1]) == d]
            assert list(coproduct_graded(x, d).terms.items()) == cell


def test_coproduct_of_two_letter_words():
    """Delta(E_1 E_1) = E_1^2 (x) 1 + (1 + q^2) E_1 K_1 (x) E_1 + K_1^2 (x) E_1^2
    and Delta(F_1 F_2) = F_1 F_2 (x) K_1^{-1} K_2^{-1} + F_1 (x) K_1^{-1} F_2
    + q F_2 (x) K_2^{-1} F_1 + 1 (x) F_1 F_2 on A2."""
    z = A2.zero_vector()
    assert coproduct(Element.E(A2, 1, 1)).terms == {
        (((1, 1), z, ()), ((), z, ())): ONE,
        (((1,), (1, 0), ()), ((1,), z, ())): ONE + Q ** 2,
        (((), (2, 0), ()), ((1, 1), z, ())): ONE,
    }
    assert coproduct(Element.F(A2, 1, 2)).terms == {
        (((), z, (1, 2)), ((), (-1, -1), ())): ONE,
        (((), z, (1,)), ((), (-1, 0), (2,))): ONE,
        (((), z, (2,)), ((), (0, -1), (1,))): Q,
        (((), z, ()), ((), z, (1, 2))): ONE,
    }


def test_serre_projection_cell_is_the_terms_of_y_over_k_minus_lambda():
    """The oracle's cell, the part of the coproduct of Y = F_ij(B_i, B_j)
    whose second factor is exactly K_{-lambda_ij}, is, key for key and in
    order, the terms E_e K_k F_f of Y with k - wt f = -lambda_ij, on the
    closed-formula cases, every ordered (i, j) of every admissible pair of
    A3 and B3 and of every fifth pair of the sweep: the cell could be read
    off Y with no coproduct."""
    from qcoideal.cartan import enumerate_admissible
    from qcoideal.qsp import serre_projection
    from qcoideal.suites import CLOSED_CASES, _build_pair, _default_params, _serre_tasks

    cases = []
    for kind, rank, X, tau_pairs, i, j, _torus in CLOSED_CASES:
        cases.append((_default_params(_build_pair(kind, rank, X, tau_pairs)), i, j))
    pairs = [pair for kind in ("A", "B") for pair in enumerate_admissible(cartan_datum(kind, 3))]
    for kind, rank, X, tau_pairs in _serre_tasks()[::5]:
        pairs.append(_build_pair(kind, rank, X, tau_pairs))
    for pair in pairs:
        params = _default_params(pair)
        cases += [(params, i, j) for i, j in itertools.permutations(pair.datum.labels, 2)]
    assert len(cases) > 60
    for params, i, j in cases:
        datum = params.datum
        Y, cell = serre_projection(params, i, j)
        m = 1 - datum.a(i, j)
        lam = tuple(m * a + b for a, b in zip(datum.simple_root(i), datum.simple_root(j)))
        want = {
            (e, k, f): c for (e, k, f), c in Y.terms.items()
            if tuple(a - b for a, b in zip(k, word_weight(datum, f))) == tuple(-x for x in lam)
        }
        assert list(cell.terms.items()) == list(want.items())


def _k_word_element(rng, datum, with_k):
    """One to three monomials E_e K_k of one weight, with K parts when
    with_k."""
    w = tuple(rng.choice(datum.labels) for _ in range(rng.randint(1, 4)))
    out = Element.zero(datum)
    for _ in range(rng.randint(1, 3)):
        e = list(w)
        rng.shuffle(e)
        k = tuple(rng.randint(-2, 2) for _ in range(datum.n)) if with_k else datum.zero_vector()
        out = out + Element.monomial(datum, e, k, (), Scalar.q_pow(rng.randint(-2, 2)) + ONE)
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "affine:A1"])
def test_skew_ir_is_the_conjugated_right_derivation(name):
    """The word formula of the left skew derivation equals sigma . r_i .
    sigma, key for key and in order, with and without K parts."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(31)
    shifted = 0
    for with_k in (False, True):
        for _ in range(25):
            x = _k_word_element(rng, datum, with_k)
            for i in datum.labels:
                want = sigma(skew_r(i, sigma(x)))
                assert list(skew_ir(i, x).terms.items()) == list(want.terms.items())
                alpha = datum.simple_root(i)
                if want.terms and any(datum.bilinear(alpha, k) for _e, k, _f in x.terms):
                    shifted += 1
    assert shifted > 10  # the K branch is reached with (alpha_i, k) != 0


# The linear maps of a tensor as per-term loops that copy the whole sum on
# every term, kept as the reference for the order of the terms.

def _ref_tensor_of_elements(elems, coeff):
    datum = elems[0].datum
    out = {}

    def rec(t, keys, c):
        if t == len(elems):
            _ref_add(out, keys, c)
            return
        for key, cc in elems[t].terms.items():
            rec(t + 1, keys + (key,), c * cc)

    rec(0, (), coeff)
    return Tensor(datum, len(elems), out)


def _ref_mul(s, t):
    datum = s.datum
    out = Tensor(datum, s.arity)
    for keys1, c1 in s.terms.items():
        for keys2, c2 in t.terms.items():
            slots = [
                Element(datum, {keys1[u]: ONE}) * Element(datum, {keys2[u]: ONE})
                for u in range(s.arity)
            ]
            out = out + _ref_tensor_of_elements(slots, c1 * c2)
    return out


def _ref_map_slot(t, slot, fn):
    datum = t.datum
    out = Tensor(datum, t.arity)
    for keys, c in t.terms.items():
        img = fn(Element(datum, {keys[slot]: ONE}))
        pieces = [Element(datum, {keys[u]: ONE}) if u != slot else img for u in range(t.arity)]
        out = out + _ref_tensor_of_elements(pieces, c)
    return out


def _ref_coproduct_slot(t, slot):
    datum = t.datum
    out = {}
    for keys, c in t.terms.items():
        inner = coproduct(Element(datum, {keys[slot]: c}))
        for (k1, k2), cc in inner.terms.items():
            _ref_add(out, keys[:slot] + (k1, k2) + keys[slot + 1:], cc)
    return Tensor(datum, t.arity + 1, out)


def _ref_counit_slot(t, slot):
    out = {}
    for keys, c in t.terms.items():
        e, _k, f = keys[slot]
        if not e and not f:
            _ref_add(out, keys[:slot] + keys[slot + 1:], c)
    return Tensor(t.datum, t.arity - 1, out)


def _ref_contract(t):
    datum = t.datum
    total = Element.zero(datum)
    for keys, c in t.terms.items():
        prod = Element(datum, {keys[0]: c})
        for u in range(1, t.arity):
            prod = prod * Element(datum, {keys[u]: ONE})
        total = total + prod
    return total


def _items(x):
    return list(x.terms.items())


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "affine:A1"])
def test_tensor_maps_keep_the_order_of_the_per_term_loops(name, monkeypatch):
    """Tensor products, the slot maps and contraction give the terms of
    the per-term loops, key for key and in order, on tensors of arity 2
    and 3 whose slots repeat monomials.  The coefficients have the
    denominators q_i - q_i^{-1} and [3]!, so that products and contractions
    of arity 2 and 3 defer some of their sums."""
    import qcoideal.uqg as uqg

    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(32)
    E1 = Element.E(datum, datum.labels[0])
    coeffs = [ONE, qfact(3).inverse()] + [_ef_inverse(datum, i) for i in datum.labels]
    deferred = []
    monkeypatch.setattr(uqg, "scalar_sum", lambda cs: deferred.append(cs) or scalar_sum(cs))
    engine = 0  # the sums the engine's tensor products and contractions defer
    for _ in range(3):
        x, y = (Element(datum, {m: c * rng.choice(coeffs) for m, c in
                                _random_element(rng, datum, terms=2).terms.items()}) for _ in "xy")
        t2, dy = coproduct(x), coproduct(y)
        t3 = dy.coproduct_slot(1)
        n = len(deferred)
        got = [t2 * dy, t3 * t3, t2.contract(), t3.contract(), (t3 * t3).contract()]
        engine += len(deferred) - n
        want = [_ref_mul(t2, dy), _ref_mul(t3, t3), _ref_contract(t2), _ref_contract(t3),
                _ref_contract(_ref_mul(t3, t3))]
        assert [_items(g) for g in got] == [_items(w) for w in want]
        for t in (t2, t3):
            for slot in range(t.arity):
                for fn in (antipode, omega, lambda a: a * E1 - E1 * a):
                    assert _items(t.map_slot(slot, fn)) == _items(_ref_map_slot(t, slot, fn))
                assert _items(t.coproduct_slot(slot)) == _items(_ref_coproduct_slot(t, slot))
                assert _items(t.counit_slot(slot)) == _items(_ref_counit_slot(t, slot))
    assert engine > 0


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "affine:A1"])
def test_monomial_coproduct_is_the_coproduct_of_one_monomial(name):
    """For random monomials, with target None and with every degree that a
    split can reach, the keys of `_monomial_coproduct` are distinct and it
    is `coproduct_graded` of the monomial, item for item and in order;
    every such degree has terms, and a degree past the E-word has none."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(71)
    for _ in range(15):
        e, f = (tuple(rng.choice(datum.labels) for _ in range(rng.randint(0, 3))) for _ in "ef")
        m = (e, tuple(rng.randint(-1, 1) for _ in range(datum.n)), f)
        we, wf = word_weight(datum, e), word_weight(datum, f)
        degrees = list(itertools.product(*(range(-b, a + 1) for a, b in zip(we, wf))))
        for target in [None] + degrees:
            got = _monomial_coproduct(datum, m, target)
            keys = [key for key, _p in got]
            assert got and len(set(keys)) == len(keys)
            assert got == _items(coproduct_graded(Element(datum, {m: ONE}), target))
            assert got == _ref_monomial_coproduct(datum, m, target)
        past = (we[0] + 1,) + datum.zero_vector()[1:]
        assert _monomial_coproduct(datum, m, past) == []


@pytest.mark.parametrize("name", ["A2", "G2", "affine:A1"])
def test_shift_rows_pair_k_with_the_simple_roots(name):
    """The shift row of k is (2 (k, alpha_p))_p, and None for k = 0."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    for k in itertools.product(range(-2, 3), repeat=datum.n):
        want = tuple(2 * datum.bilinear(k, datum.simple_root(i)) for i in datum.labels)
        assert _shift_row(datum, k) == (want if any(k) else None)


def test_scalar_times_element_scales_it():
    q = Scalar.v_pow(1)
    assert q * Element.E(A2, 1) == Element.E(A2, 1).scale(q)


def test_only_a_scalar_on_the_left_multiplies_an_element():
    x = Element.E(A2, 1)
    for product in (lambda: 2 * x, lambda: x * 2, lambda: x * ONE):
        with pytest.raises(TypeError):
            product()


def test_refusals_and_zero_cases_of_the_element_api():
    x = Element.E(A2, 1)
    with pytest.raises(ValueError, match="negative powers are not defined"):
        x ** -1
    for n in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="Element exponent"):
            x ** n
    with pytest.raises(ValueError, match="i != j"):
        serre_polynomial(A2, 1, 1, x, x)
    with pytest.raises(ValueError, match="different Cartan data"):
        q_commutator(x, Element.E(cartan_datum("A", 3), 1), 0)
    with pytest.raises(ValueError, match="use counit"):
        _tensor_of_elements([x]).counit_slot(0)
    assert x.scale(ZERO) == Element.zero(A2) and coproduct(x).scale(ZERO) == Tensor(A2, 2)
    assert Element.monomial(A2, (1,), (0, 0), (), ZERO) == Element.zero(A2)
    assert x.__eq__(x.terms) is NotImplemented and x != x.terms
    # a zero addend under a repeated key reaches the n-ary sum, which skips it
    c = (ONE + Scalar.v_pow(1)).inverse()
    assert parse_element(A2, "E[1] * (1/(1 + v)) + E[1] * (0)") == x.scale(c)


def test_reprs_show_the_text_form_or_the_size():
    x = Element.E(A2, 1) + Element.K_i(A2, 2).scale(qint(2))
    assert repr(x) == "Element('K{2:1} * (v^2 + v^-2) + E[1] * (1)')"
    assert repr(coproduct(Element.E(A2, 1))) == "Tensor(arity=2, terms=2)"


# The one accumulator of linear combinations, `_gather` and `_settle`.

def _accumulate(addends, key="x"):
    out = {}
    for c in addends:
        _gather(out, key, c)
    return _settle(out)


def test_a_zero_addend_opens_no_key():
    """A zero coefficient, parsed or read from JSON, gives no term."""
    assert not parse_element(A2, "E[1] * (0)").terms
    assert not element_from_json(A2, {"terms": [{"E": [1], "coeff": "0"}]}).terms
    assert parse_element(A2, "E[1] * (0) + E[2] * (q)").terms == {((2,), (0, 0), ()): Q}


def test_a_difference_with_itself_has_no_terms():
    """x - x is empty for x = F_1 E_1, whose normal form E_1 F_1 - (K_1 -
    K_1^{-1}) / (q - q^{-1}) has torus terms over q - q^{-1}: their sums
    are deferred and vanish when settled."""
    x = Element.F(A2, 1) * Element.E(A2, 1)
    assert any(len(c.den) > 1 for c in x.terms.values())
    assert not (x - x).terms
    assert not (x + (-x)).terms


def test_a_key_met_again_after_it_cancels_keeps_the_later_addend():
    """A key that cancels over 1 is dropped, and the addend that meets it
    next opens it again, after the keys met in between."""
    out = {}
    for key, c in [("a", ONE), ("b", Q), ("a", -ONE), ("a", Q ** 2)]:
        _gather(out, key, c)
    assert list(_settle(out).items()) == [("b", Q), ("a", Q ** 2)]
    x = parse_element(A2, "E[1] * (1) + E[2] * (1) + E[1] * (-1) + E[1] * (q^2)")
    assert list(x.terms.items()) == [(((2,), (0, 0), ()), ONE), (((1,), (0, 0), ()), Q ** 2)]


def test_sums_of_several_addends_are_the_left_fold():
    """Three or four addends over products of Phi_k, over 1 and over the
    cofactor v^2 + 3 sum, in every order, to the left fold of +, and a key
    whose addends cancel is dropped."""
    e = (Q - Q ** -1).inverse()
    r = (Scalar.v_pow(2) + Scalar.gaussian(3)).inverse()
    groups = [
        [Q * e, -(Q ** -1 * e), qint(3).inverse()],
        [qint(2).inverse(), qfact(3).inverse(), -qint(2).inverse(), qint(3).inverse()],
        [e, ONE, Q ** 2, qfact(4).inverse()],
        [r, qint(2).inverse(), -r, Q],
        [r, e, -r, -e],
        [ONE, r.shifted(2), -ONE, qint(2).inverse()],
    ]
    for addends in groups:
        for order in itertools.permutations(addends):
            total = reduce(add, order)
            assert _accumulate(order) == ({"x": total} if total else {})
    assert _accumulate(groups[4]) == {}


# The product by letter passes, which the commutation table replaced, kept
# as the reference for the table product.

def _letter_pass_mul(a, b):
    """{monomial: coefficient} of a * b by one letter pass over a for every
    E-letter of every term of b, then K_{k2} moved left past each F-word
    and F_{f2} appended."""
    datum = a.datum
    out = {}
    for (e2, k2, f2), c2 in b.terms.items():
        cur = {key: c * c2 for key, c in a.terms.items()}
        for i in e2:
            nxt = {}
            for key, c in cur.items():
                for nkey, pc in _mono_times_E(datum, key, i, c):
                    _ref_add(nxt, nkey, pc)
            cur = nxt
        for (e, k, f), c in cur.items():
            x = 2 * datum.bilinear(k2, word_weight(datum, f))
            _ref_add(out, (e, tuple(map(add, k, k2)), f + f2), c.shifted(x))
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "affine:A1"])
def test_table_product_matches_the_letter_pass(name):
    """Products through the commutation table, and through F-words passing
    a group of terms at once, equal the letter-pass products, on random
    elements with K parts and denominators on both sides, and on factors
    with groups of three to five terms of one K-part and F-word."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(41)
    both = 0  # pairs of terms with K parts on both sides that meet the table
    grouped = 0  # terms with F-letters times the groups they pass
    for t in range(18):
        if t < 12:
            x, y = _word_element(rng, datum), _word_element(rng, datum)
        else:
            x, y = _grouped_element(rng, datum), _grouped_element(rng, datum)
        assert (x * y).terms == _letter_pass_mul(x, y)
        both += sum(1 for (_e1, k1, f1) in x.terms for (e2, k2, _f2) in y.terms
                    if any(k1) and any(k2) and f1 and e2)
        grouped += _grouped_pairs(x, y)
    assert both > 10 and grouped >= 6


def test_two_data_never_share_a_table():
    """Each datum fills its own table: two data of one matrix keep two
    tables, and B2 and its transpose C2 expand F_1 F_2 E_2 E_1 each with
    its own q_i."""
    a, b = CartanDatum(A2.A), CartanDatum(A2.A)
    Element.F(a, 1) * Element.E(a, 1)
    assert a.caches["commute"] and not b.caches["commute"]
    b2 = CartanDatum(cartan_datum("B", 2).A)
    c2 = CartanDatum(tuple(zip(*b2.A)))
    products = []
    for d in (b2, c2, b2):
        x, y = Element.F(d, 1, 2), Element.E(d, 2, 1)
        assert (x * y).terms == _letter_pass_mul(x, y)
        products.append((x * y).terms)
    assert products[0] != products[1] and products[0] == products[2]
    assert b2.caches["commute"] is not c2.caches["commute"]


# The E-past-F pushes of every prefix of an F-word, which a memo kept
# before `_mono_times_E` took them in closed form, kept as its reference.

def _ref_push_e(datum, f_word, i):
    """(k_sign, g_word, x) for the pieces -k_sign v^x / (q_i - q_i^{-1})
    K_{k_sign alpha_i} F_{g_word} of F_{f_word} E_i, built letter by letter."""
    if not f_word:
        return []
    f1, j = f_word[:-1], f_word[-1]
    out = [(ks, g + (j,), x) for ks, g, x in _ref_push_e(datum, f1, i)]
    if j == i:
        x = 2 * datum.bilinear(datum.simple_root(i), word_weight(datum, f1)) if f1 else 0
        out += [(1, f1, x), (-1, f1, -x)]
    return out


def _ref_mono_times_E(datum, key, i, c):
    e, k, f = key
    p = datum.pos(i)
    out = [((e + (i,), k, f), c.shifted(2 * sum(map(mul, datum.gram[p], k))))]
    pieces = _ref_push_e(datum, f, i)
    if pieces:
        ci = c * _ef_inverse(datum, i)
        for ks, g, x in pieces:
            nk = tuple(b + ks if t == p else b for t, b in enumerate(k))
            out.append(((e, nk, g), (ci if ks < 0 else -ci).shifted(x)))
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "affine:A1"])
def test_mono_times_E_matches_the_letter_by_letter_pushes(name):
    """The closed-form torus pieces equal the recursive pushes, key for key
    and in order, on every F-word of length at most 5, with K parts."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(47)
    coeffs = [ONE, Q, qint(2).inverse(), (Q - Q ** -1).inverse()]
    for n in range(6):
        for f in itertools.product(datum.labels, repeat=n):
            e = tuple(rng.choice(datum.labels) for _ in range(rng.randint(0, 2)))
            key = (e, tuple(rng.randint(-2, 2) for _ in range(datum.n)), f)
            c = rng.choice(coeffs)
            for i in datum.labels:
                assert _mono_times_E(datum, key, i, c) == _ref_mono_times_E(datum, key, i, c)


def test_a_repeated_f_letter_keeps_memory_small():
    """F_1^200 E_1 on a fresh datum builds one table entry of three terms;
    a memo of the pushes of every prefix held memory cubic in the length."""
    import tracemalloc

    datum = CartanDatum(A2.A)
    tracemalloc.start()
    try:
        x = Element.F(datum, *[1] * 200) * Element.E(datum, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(x.terms) == 3
    assert peak < 5 * 2 ** 20, peak


def _table_state(datum):
    """A deep copy of the commutation table, its bases as dicts."""
    return {key: ([(dict(b.num), dict(b.den)) for b in bases], negs, rows)
            for key, (bases, negs, rows) in datum.caches["commute"].items()}


def test_products_leave_the_table_as_it_was():
    """A second product, and sums and zero tests of the first, neither
    change a stored entry nor the product."""
    datum = CartanDatum(cartan_datum("G", 2).A)
    rng = random.Random(43)
    x = _word_element(rng, datum) + Element.monomial(datum, (2,), (1, -1), (1, 2, 1), qint(2).inverse())
    y = _word_element(rng, datum) + Element.monomial(datum, (1, 1, 2), (0, 1), (2,), Q)
    first = x * y
    state = _table_state(datum)
    assert state
    second = x * y
    assert second.terms == first.terms
    assert is_zero(first + first - second - second)
    assert _table_state(datum) == state


# Each table row as its full coefficient (-1)^neg v^s base, and the product
# that multiplies every row's coefficient, as it did before the rows were
# factored over their distinct bases, kept as the reference for the table.

def _row_coefficients(entry):
    """[(E-word, K-vector, F-word, coefficient)] of a table entry, in order."""
    bases, negs, rows = entry
    signed = list(bases) + [-bases[b] for b in negs]
    return [(e, k, f, signed[j].shifted(s)) for e, k, f, j, s in rows]


def _per_row_straighten(datum, out, a, b, c, s=0):
    """`_straighten` with one product c (-1)^neg v^t base per table row,
    every shift read off the K-vectors, not off the shift rows, and summed
    into out by `_ref_add`."""
    e1, k1, f1, _r1 = a
    e2, k2, f2, _r2 = b
    k12 = tuple(map(add, k1, k2))
    if not f1 or not e2:
        x = _ref_vexp(datum, k1, e2) + _ref_vexp(datum, k2, f1)
        _ref_add(out, (e1 + e2, k12, f1 + f2), c.shifted(x + s))
        return
    for e, k, f, cc in _row_coefficients(_commute(datum, f1, e2)):
        x = _ref_vexp(datum, k1, e) + _ref_vexp(datum, k2, f)
        _ref_add(out, (e1 + e, tuple(map(add, k12, k)), f + f2), (c * cc).shifted(x + s))


def _per_row_mul(x, y):
    """x y by its own loop over the pairs of terms, y's outer and x's inner,
    each pair straightened by `_per_row_straighten`."""
    out = {}
    for m2, c2 in y.terms.items():
        for m1, c1 in x.terms.items():
            _per_row_straighten(x.datum, out, m1 + (None,), m2 + (None,), c1 * c2)
    return Element(x.datum, out)


def _ref_q_commutator(x, y, s):
    """x y - v^s y x as two products, a scaling and a difference, as it was
    built before one pass straightened both orders of every pair of terms."""
    return x * y - (y * x).scale(Scalar.v_pow(s))


def _ref_element_mul(x, y):
    """x y by the pair loop alone: y's terms outer and x's inner, every pair
    straightened by `_straighten` with the product of its coefficients, also
    where a factor is one monomial that needs no table."""
    if y.__class__ is not Element:
        return NotImplemented
    if x.datum is not y.datum:
        raise ValueError("elements of different Cartan data do not combine")
    datum, out = x.datum, {}
    left = [(m + (_shift_row(datum, m[1]),), c) for m, c in x.terms.items()]
    for m, c2 in y.terms.items():
        b = m + (_shift_row(datum, m[1]),)
        for a, c1 in left:
            _straighten(datum, out, a, b, c1 * c2)
    return Element(datum, _settle(out))


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_single_monomial_products_match_the_pair_loop(name):
    """A product with one monomial c K_k F_f on the right or c E_e K_k on the
    left gives the terms of the pair loop, the same keys and coefficients in
    the same order, without straightening a pair: for Elements with Gaussian
    coefficients over 1, [2]!, [3]! and q_i - q_i^-1, negative K entries and
    empty words.  A one-term factor that needs a table, F_1 on the left of
    E_1, still matches the pair loop."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import qcoideal.uqg as uqg

    datum = cartan_datum(name[0], int(name[1]))
    dens = [ONE, qint(2).inverse(), qfact(3).inverse()] + [_ef_inverse(datum, i) for i in datum.labels]
    gauss = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any).map(lambda t: Scalar.gaussian(*t))
    coeff = st.builds(lambda g, d, s: (g * d).shifted(s), gauss, st.sampled_from(dens), st.integers(-3, 3))
    word = st.lists(st.sampled_from(datum.labels), max_size=3).map(tuple)
    torus = st.tuples(*[st.integers(-2, 2)] * datum.n)
    monomial = st.builds(lambda e, k, f, c: Element.monomial(datum, e, k, f, c), word, torus, word, coeff)
    element = st.lists(monomial, max_size=4).map(lambda ms: reduce(add, ms, Element.zero(datum)))
    right = st.builds(lambda k, f, c: Element.monomial(datum, (), k, f, c), torus, word, coeff)
    left = st.builds(lambda e, k, c: Element.monomial(datum, e, k, (), c), word, torus, coeff)

    def no_pair(*args):
        raise AssertionError("a single-monomial product straightened a pair of terms")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(element, right, left)
    def check(x, r, l):
        want = [_ref_element_mul(a, b) for a, b in ((x, r), (l, x), (l, r), (r, l))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uqg, "_straighten", no_pair)
            got = [x * r, l * x, l * r]
        got.append(r * l)  # K_k F_f E_e: the F-word meets the E-word
        assert [_items(g) for g in got] == [_items(w) for w in want]

    check()
    E1, F1 = Element.E(datum, 1), Element.F(datum, 1)
    assert len((F1 * E1).terms) == 3
    assert _items(F1 * E1) == _items(_ref_element_mul(F1, E1))


def _ref_letter_pass(datum, f, e):
    """{monomial: coefficient} of F_f E_e by letter passes with the
    recursive pushes of `_ref_mono_times_E`."""
    cur = {((), datum.zero_vector(), f): ONE}
    for i in e:
        nxt = {}
        for key, c in cur.items():
            for nkey, pc in _ref_mono_times_E(datum, key, i, c):
                _ref_add(nxt, nkey, pc)
        cur = nxt
    return cur


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "affine:A1"])
def test_table_rows_factor_the_letter_pass(name):
    """Every row's (-1)^neg v^s base is the letter-pass coefficient, key for
    key and in order, for every F-word of length at most 4 against every
    E-word of length at most 2; the bases of an entry are distinct pool
    objects with lowest exponent 0 and a positive lowest coefficient."""
    datum = CartanDatum(cartan_datum(name[:-1], int(name[-1])).A)
    pool = datum.caches["pool"]
    es = [e for n in (1, 2) for e in itertools.product(datum.labels, repeat=n)]
    for n in range(1, 5):
        for f in itertools.product(datum.labels, repeat=n):
            for e in es:
                entry = _commute(datum, f, e)
                want = _ref_letter_pass(datum, f, e)
                assert _row_coefficients(entry) == [(*key, c) for key, c in want.items()]
                bases, negs, rows = entry
                assert len({id(b) for b in bases}) == len(set(bases)) == len(bases)
                used, nb = {j for *_, j, _s in rows}, len(bases)
                assert {j if j < nb else negs[j - nb] for j in used} == set(range(nb))
                assert used >= set(range(nb, nb + len(negs))) and len(set(negs)) == len(negs)
                for b in bases:
                    low = b.num[min(b.num)]
                    assert min(b.num) == 0 and low.re > 0 and not low.im
                    assert b is ONE or pool[b] is b


@pytest.mark.parametrize("name", ["G2", "B2", "A3"])
def test_products_match_per_row_products(name, monkeypatch):
    """Products that multiply once per distinct base equal the products
    that multiply every row's coefficient, term for term and in order, and
    so do q-commutators with a shift against those whose kernel does, with
    Gaussian, rational, cyclotomic and 1/(v^2 + 3) coefficients; the last
    sends a product to the normaliser of plain-dict denominators."""
    import qcoideal.uqg as uqg

    datum = CartanDatum(cartan_datum(name[:-1], int(name[-1])).A)
    rng = random.Random(53)
    coeffs = [Scalar.gaussian(2, -1), I_UNIT, Scalar.gaussian(Fraction(-3, 4)),
              qint(3).inverse(), (Q - Q ** -1).inverse(),
              (Scalar.v_pow(2) + Scalar.gaussian(3)).inverse()]
    for t in range(12):
        x, y = _word_element(rng, datum), _word_element(rng, datum)
        x, y = x.scale(coeffs[t % len(coeffs)]), y.scale(rng.choice(coeffs))
        assert _items(x * y) == _items(_per_row_mul(x, y))
        got = q_commutator(x, y, 2 * t - 6)
        monkeypatch.setattr(uqg, "_straighten", _per_row_straighten)
        want = q_commutator(x, y, 2 * t - 6)
        monkeypatch.undo()
        assert _items(got) == _items(want)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "affine:A1"])
def test_q_commutator_matches_two_products(name):
    """x y - v^s y x in one pass equals the two products' difference as a
    dict, for multi-term x and y with K parts, coefficients 1/(q_i -
    q_i^-1), 1/[n]! and Gaussian ones, and s = -4, -2, 0, 2, 6, and so
    does it when both factors have groups of three to five terms of one
    K-part and F-word, which the F-words of the other pass at once; the
    pair loop's two products agree."""
    datum = CartanDatum(cartan_datum(name[:-1], int(name[-1])).A)
    rng = random.Random(61)
    coeffs = [ONE, Q, Scalar.gaussian(2, -1), I_UNIT * Q - ONE, qfact(2).inverse(), qfact(3).inverse()]
    coeffs += [_ef_inverse(datum, i) for i in datum.labels]
    grouped = 0  # terms with F-letters times the groups they pass, both orders
    for s in (-4, -2, 0, 2, 6):
        for t in range(6):
            draw = _word_element if t < 4 else _grouped_element
            x, y = draw(rng, datum, coeffs), draw(rng, datum, coeffs)
            got = q_commutator(x, y, s)
            assert got.terms and got.terms == _ref_q_commutator(x, y, s).terms
            pairs = _ref_element_mul(x, y) - _ref_element_mul(y, x).scale(Scalar.v_pow(s))
            assert got.terms == pairs.terms
            grouped += _grouped_pairs(x, y) + _grouped_pairs(y, x)
    assert grouped >= 20
    E1 = Element.E(datum, datum.labels[0])
    assert not q_commutator(E1, E1, 0).terms


def test_q_commutator_makes_one_product_per_pair_of_terms(monkeypatch):
    """(2 E_1 + 3 E_2) times 5 E_1 K_1 in both orders needs no table, so
    x y - q y x makes one Scalar product per pair of terms, where the two
    products and the scaling made six."""
    datum = CartanDatum(cartan_datum("A", 2).A)
    two, three, five = (Scalar.gaussian(n) for n in (2, 3, 5))
    x = Element.E(datum, 1).scale(two) + Element.E(datum, 2).scale(three)
    y = Element.monomial(datum, (1,), (1, 0), (), five)
    products = []
    original = Scalar.__mul__

    def counted(a, b):
        products.append((a, b))
        return original(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    got = q_commutator(x, y, 2)
    one_pass = len(products)
    want = _ref_q_commutator(x, y, 2)
    monkeypatch.undo()
    assert got == want
    assert one_pass == 2 and len(products) - one_pass == 6


def test_one_product_per_distinct_base(monkeypatch):
    """(q - q^-1) F_1 times E_1 makes one Scalar product without ONE per
    distinct base of the F_1 E_1 entry other than ONE, also when the pool
    holds another Scalar equal to ONE, and a product with ONE returns the
    other operand itself."""
    datum = CartanDatum(((2,),))
    one = Scalar.gaussian(1)  # a copy of ONE planted in the pool must not replace ONE
    datum.caches["pool"][one] = one
    x, y = Element.F(datum, 1).scale(Q - Q ** -1), Element.E(datum, 1)
    products = []
    original = Scalar.__mul__

    def counted(a, b):
        products.append((a, b))
        return original(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    x * y
    monkeypatch.undo()
    bases, negs, rows = datum.caches["commute"][((1,), (1,))]
    assert len(rows) == 3 and len(bases) == 2 and any(b is ONE for b in bases)
    assert sum(1 for a, b in products if a is not ONE and b is not ONE) == len(bases) - 1
    z = qint(2).inverse()
    assert ONE * z is z and z * ONE is z
    with pytest.raises(TypeError):
        ONE * 3


# The skew derivations as slice formulas, and omega and the antipode as
# straightened products of generator images, kept as references for the
# maps that read `_deletions` and reorder through sigma.

def _ref_vexp(datum, beta, word):
    return 2 * datum.bilinear(beta, word_weight(datum, word)) if word else 0


def _ref_skew_r(i, a):
    datum = a.datum
    alpha = datum.simple_root(i)
    out = {}
    for (e, k, f), c in a.terms.items():
        for p, letter in enumerate(e):
            if letter == i:
                _ref_add(out, (e[:p] + e[p + 1:], k, f), c.shifted(_ref_vexp(datum, alpha, e[p + 1:])))
    return Element(datum, out)


def _ref_skew_ir(i, a):
    datum = a.datum
    alpha = datum.simple_root(i)
    out = {}
    for (e, k, f), c in a.terms.items():
        x = -2 * datum.bilinear(alpha, k)
        for p in range(len(e) - 1, -1, -1):
            if e[p] == i:
                _ref_add(out, (e[:p] + e[p + 1:], k, f), c.shifted(x + _ref_vexp(datum, alpha, e[:p])))
    return Element(datum, out)


def _ref_omega(a):
    """omega(E_e K_k F_f) = F_e K_{-k} E_f as a product."""
    datum = a.datum
    out = Element.zero(datum)
    for (e, k, f), c in a.terms.items():
        mk = tuple(-x for x in k)
        prod = Element.F(datum, *e) * Element.K(datum, mk) * Element.E(datum, *f)
        out = out + prod.scale(c)
    return out


def _ref_antipode(a):
    """S(E_e K_k F_f) = S(F_f) S(K_k) S(E_e) as a product of the images
    S(F_j) = -F_j K_j, S(K_k) = K_{-k} and S(E_i) = -K_i^{-1} E_i."""
    datum = a.datum
    out = Element.zero(datum)
    for (e, k, f), c in a.terms.items():
        prod = Element.unit(datum, c)
        for j in reversed(f):
            prod = -(prod * Element.F(datum, j) * Element.K_i(datum, j))
        prod = prod * Element.K(datum, tuple(-x for x in k))
        for i in reversed(e):
            prod = -(prod * Element.K_i(datum, i, -1) * Element.E(datum, i))
        out = out + prod
    return out


REORDER_DATA = ["A2", "B2", "G2", "A3", "B3", "C3", "affine:A1"]


@pytest.mark.parametrize("name", REORDER_DATA)
def test_skew_derivations_match_the_slice_formulas(name):
    """r_i and _ir read through `_deletions` give the terms of the slice
    formulas key for key and in order, with and without K parts."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(53)
    for with_k in (False, True):
        for _ in range(20):
            x = _k_word_element(rng, datum, with_k)
            for i in datum.labels:
                for got, want in ((skew_r(i, x), _ref_skew_r(i, x)),
                                  (skew_ir(i, x), _ref_skew_ir(i, x))):
                    assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("name", REORDER_DATA)
def test_omega_and_antipode_match_the_products(name):
    """omega = sigma . rho and S = sigma . phi equal the straightened
    products of the generator images, as dicts, on random elements with K
    parts and a denominator."""
    datum = cartan_datum(name[:-1], int(name[-1]))
    rng = random.Random(59)
    for _ in range(80):
        e, f = (tuple(rng.choice(datum.labels) for _ in range(3)) for _ in "ef")
        k = tuple(rng.randint(-1, 1) for _ in range(datum.n))
        x = _random_element(rng, datum) + Element.monomial(datum, e, k, f, qint(2).inverse())
        assert omega(x).terms == _ref_omega(x).terms
        assert antipode(x).terms == _ref_antipode(x).terms
