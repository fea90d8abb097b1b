import random
from fractions import Fraction

import pytest

from qcoideal import scalars
from qcoideal.braid import apply_braid, apply_word, braid_T
from qcoideal.cartan import cartan_datum
from qcoideal.grammar import scalar_to_text
from qcoideal.scalars import (
    I_UNIT,
    ONE,
    ZERO,
    Scalar,
    fourth_root_power,
    is_bar_fixed,
    qbinom_eps,
    qfact,
    qint,
    qshifted_factorial,
)
from qcoideal.uqg import Element

Q = Scalar.q_pow(1)
V = Scalar.v_pow(1)


def test_bar_fixes_symmetric_combination():
    assert (Q + Q ** -1).bar() == Q + Q ** -1


def test_bar_inverts_v():
    assert V.bar() == V ** -1


def test_bar_reduces_fraction():
    s = (ONE - Q ** 2) / (ONE - Q ** 4)
    b = s.bar()
    expected = Q ** 2 / (ONE + Q ** 2)
    assert b == expected
    # independent route: substitute on the unreduced pieces and compare by
    # cross multiplication, done entirely at polynomial level
    num = ONE - Q ** -2
    den = ONE - Q ** -4
    assert num * (ONE + Q ** 2) == den * Q ** 2
    assert b * den == num


def test_is_bar_fixed_examples():
    assert is_bar_fixed(Q + Q ** -1)
    assert not is_bar_fixed(Q)
    assert not is_bar_fixed(Q ** -1 * (Q + Q ** -1))


def test_q_pow_takes_half_integer_exponents():
    assert Scalar.q_pow(Fraction(1, 2)) == Scalar.v_pow(1)
    assert Scalar.q_pow(Fraction(6, 2)) == Scalar.v_pow(6)
    with pytest.raises(ValueError, match="half integer"):
        Scalar.q_pow(Fraction(1, 3))


def test_qbinom_basics():
    assert qbinom_eps(2, 1) == Q + Q ** -1
    assert qbinom_eps(3, 0) == ONE
    assert qbinom_eps(3, 5) == ZERO
    assert qbinom_eps(3, -1) == ZERO
    # base q_i = q^2
    assert qbinom_eps(2, 1, 2) == Q ** 2 + Q ** -2


def test_qbinom_alternating_sum_identity():
    # sum_k (-1)^k [2 k]_q q^{3k} = (1 - q^2)(1 - q^4)
    total = ZERO
    for k in range(3):
        term = qbinom_eps(2, k) * Q ** (3 * k)
        total = total + (-term if k % 2 else term)
    assert total == (ONE - Q ** 2) * (ONE - Q ** 4)


def test_qshifted_factorial():
    assert qshifted_factorial(Q ** 2, 1) == ONE - Q ** 2
    assert qshifted_factorial(Q ** 7, 0) == ONE
    expected = (ONE - Q ** -2) * (ONE - Q ** -4)
    assert qshifted_factorial(Q ** -2, 2) == expected


def test_binomial_vanishing_and_factorial_sums():
    for m in range(1, 7):
        plus = ZERO
        minus = ZERO
        phi = ZERO
        for k in range(m + 1):
            b = qbinom_eps(m, k, 1)
            if k % 2:
                b = -b
            plus = plus + b * Q ** ((m - 1) * k)
            minus = minus + b * Q ** (-(m - 1) * k)
            phi = phi + b * Q ** ((m + 1) * k)
        assert plus == ZERO
        assert minus == ZERO
        assert phi == qshifted_factorial(Q ** 2, m)


def test_bar_of_shifted_factorial():
    for m in range(1, 5):
        assert qshifted_factorial(Q ** 2, m).bar() == qshifted_factorial(Q ** -2, m)


def _random_scalar(rng):
    pool = [ONE, Q, -Q, Q ** -1, Q ** 2, ONE + Q ** 2, qint(2, 1), I_UNIT]
    a = rng.choice(pool)
    b = rng.choice(pool)
    return a + b * rng.choice(pool)


def test_field_and_bar_axioms_random():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
        assert a.bar().bar() == a
        if a:
            assert a * a.inverse() == ONE
        if a and b:
            assert (a / b) * b == a


def test_equality_matches_cross_multiplication():
    rng = random.Random(5)
    for _ in range(30):
        a, b = _random_scalar(rng), _random_scalar(rng)
        c, d = _random_scalar(rng), _random_scalar(rng)
        if not b or not d:
            continue
        structural = (a / b) == (c / d)
        cross = (a * d) == (c * b)
        assert structural == cross


def test_fourth_root_power_is_the_power_of_i():
    """i^n for n = -8..8, against repeated products of i and its inverse;
    the even n give i^2 = -1."""
    for n in range(-8, 9):
        assert fourth_root_power(n) == I_UNIT ** n
    assert fourth_root_power(2) == Scalar.gaussian(-1)


def test_bar_fixes_gaussian_unit():
    i = I_UNIT
    assert i.bar() == i
    assert i * i == Scalar.gaussian(-1)


# -- normalisation: cyclotomic factor cache, trial division, cofactor Euclid --

def _n(k):
    return Scalar.gaussian(k)


PINNED = [
    # repeated cyclotomic factors
    (lambda: (V ** 4 - ONE) ** 3 / (V ** 4 - ONE) ** 2, "v^4 - 1"),
    # mixed denominator: cyclotomic factors times a non-cyclotomic one
    (lambda: (V ** 2 + _n(3)) * (V + ONE) / ((V ** 4 - ONE) * (V ** 2 + _n(3))),
     "( 1 )/( v^3 - v^2 + v - 1 )"),
    # purely non-cyclotomic denominator
    (lambda: (V ** 2 + _n(3)) * (V - _n(2)) / ((V ** 2 + _n(3)) * (V + _n(5))),
     "( v - 2 )/( v + 5 )"),
    # Gaussian-coefficient denominator
    (lambda: (V ** 2 + ONE) / (V - I_UNIT), "v + i"),
    # a Gaussian numerator sharing one Q(i)-half of Phi_4 and of Phi_12
    (lambda: (V - I_UNIT) / (V ** 2 + ONE), "( 1 )/( v + i )"),
    (lambda: (V ** 2 - I_UNIT * V - ONE) * (V + ONE) / ((V ** 4 - V ** 2 + ONE) * (V ** 2 + ONE)),
     "( v + 1 )/( v^4 + i*v^3 + i*v - 1 )"),
    # monomial numerator
    (lambda: _n(3) * V ** 5 / (_n(2) * (V ** 2 + ONE)), "( 3/2*v^5 )/( v^2 + 1 )"),
    (lambda: qfact(4).inverse() * qint(3) * qint(2), "( v^6 )/( v^12 + v^8 + v^4 + 1 )"),
]


@pytest.mark.parametrize("build, text", PINNED)
def test_normaliser_pinned_cases(build, text):
    s = build()
    assert scalar_to_text(s) == text
    assert min(s.den) == 0 and s.den[max(s.den)] == scalars.GQ_ONE


def _exercise():
    out = [build() for build, _ in PINNED]
    for n in range(1, 6):
        for eps in (1, 2, 3):
            out.append(qfact(n, eps).inverse() * qint(n + 1, eps) * Q ** (n - eps))
            out.append((Q ** (2 * eps) - Q ** (-2 * eps)).inverse() * qbinom_eps(n + 2, 2, eps))
    out.append((ONE - Q ** 6) / (ONE - Q ** 4) + (ONE - Q ** 2).inverse())
    out.append((V - _n(2) * I_UNIT) * (V ** 4 + ONE) / ((V ** 8 - ONE) * (V - _n(2) * I_UNIT)))
    return [(s.num, s.den) for s in out]


def test_trial_division_changes_speed_only(monkeypatch, fresh_memos):
    """With no Phi_k tried, every factor stays in the cofactor and Euclid
    finds it: the results are identical.  Both runs start from empty memos,
    so nothing found or divided before hides a factor."""
    expected = _exercise()
    gcds = []
    original = scalars._poly_gcd

    def counting(p, q):
        gcds.append(len(q))
        return original(p, q)

    fresh_memos()
    monkeypatch.setattr(scalars, "_orders", lambda d: [])
    monkeypatch.setattr(scalars, "_poly_gcd", counting)
    assert _exercise() == expected
    assert gcds  # the cofactor path did the work


def test_factor_finds_every_cyclotomic_factor(fresh_memos):
    """Random 2 (v^2 + 3) prod Phi_k^m_k (k <= 30, degree <= 60) factor
    into exactly their exponent vector and the monic cofactor v^2 + 3."""
    rng = random.Random(59)
    for _ in range(25):
        vec, poly, deg = {}, [6, 0, 2], 0
        while True:
            k = rng.randint(1, 30)
            phi = scalars._cyclotomic(k)
            if deg + len(phi) - 1 > 60:
                break
            vec[k] = vec.get(k, 0) + 1
            deg += len(phi) - 1
            poly = scalars._int_mul(poly, phi)
        b = {e: scalars.GaussianRational(c) for e, c in enumerate(poly) if c}
        assert scalars._factor(b) == (vec, {0: scalars.GaussianRational(3), 2: scalars.GQ_ONE})


def test_braid_images_need_no_euclid(monkeypatch, fresh_memos):
    calls = []
    original = scalars._poly_gcd

    def counting(p, q):
        calls.append((p, q))
        return original(p, q)

    monkeypatch.setattr(scalars, "_poly_gcd", counting)
    b2 = cartan_datum("B", 2)
    for j in (1, 2):
        e = Element.E(b2, j)
        for i in (1, 2):
            assert apply_braid(braid_T(b2, i), e)
        assert apply_word((1, 2, 1, 2), e)
    assert calls == []


def _sympy_sides():
    """(sympy, to_sympy, side, build) for the differential tests against
    sympy.

    build(*side) is a Scalar unit * v^shift * prod Phi_k^m * other, where
    other is absent, v - r with |r| > 1, whose root is no root of unity, or
    a Q(i)-factor of Phi_4, Phi_8 or Phi_12; to_sympy(p) is (polynomial, k)
    with p = v^k * polynomial and polynomial(0) != 0."""
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import strategies as st

    v = sympy.Symbol("v")
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]

    def to_scalar(coeffs):
        return Scalar({e: scalars.GaussianRational(re, im) for e, (re, im) in enumerate(coeffs) if re or im})

    def to_sympy(p):
        k = min(p)
        return sympy.Poly.from_dict({
            (e - k,): sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
            for e, c in p.items()
        }, v, domain="QQ_I"), k

    def build(cyc, other, unit, shift):
        s = Scalar.gaussian(*unit) * V ** shift
        for k, m in cyc:
            s = s * to_scalar([(c, 0) for c in scalars._cyclotomic(k)]) ** m
        return s if other is None else s * other

    cyc = st.lists(st.tuples(st.sampled_from([1, 2, 3, 4, 6, 8, 12]), st.integers(1, 2)), max_size=3)
    far = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(lambda t: t[0] ** 2 + t[1] ** 2 > 1)
    halves = [V - I_UNIT, V + I_UNIT, V ** 2 - I_UNIT, V ** 2 + I_UNIT, V ** 2 - I_UNIT * V - ONE]
    other = st.one_of(
        st.none(),
        far.map(lambda t: V - Scalar.gaussian(*t)),
        st.sampled_from(halves),
    )
    side = st.tuples(cyc, other, st.sampled_from(units), st.integers(-3, 3))
    return sympy, to_sympy, side, build


def test_normaliser_matches_sympy_cancel():
    sympy, to_sympy, side, build = _sympy_sides()
    from hypothesis import given, settings

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(side, side)
    def check(top, bottom):
        a, b = build(*top), build(*bottom)
        (an, ka), (ad, _) = to_sympy(a.num), to_sympy(a.den)
        (bn, kb), (bd, _) = to_sympy(b.num), to_sympy(b.den)
        # sympy's reduction of a / b; neither side has the factor v
        p, q = (an * bd).cancel(ad * bn, include=True)
        lead = q.LC()
        s = a / b
        (sn, ks), (sd, kd) = to_sympy(s.num), to_sympy(s.den)
        assert kd == 0 and ks == ka - kb
        assert sd == q.monic()
        assert sn == p.mul_ground(1 / lead)

    check()


def _sympy_sum(sympy, to_sympy, addends):
    """sympy's reduction of a sum of Scalars as (k, p, q), the sum being
    v^k p / q with p(0) != 0, q(0) != 0 and q monic; None for zero."""
    sides = [(to_sympy(a.num), to_sympy(a.den)[0]) for a in addends]
    k = min(ka for (_, ka), _ in sides)
    shift = sympy.Poly(sympy.Symbol("v"), sides[0][0][0].gens[0], domain="QQ_I")
    top = bottom = None
    for t, ((an, ka), _) in enumerate(sides):
        term = an * shift ** (ka - k)
        for u, (_, ad) in enumerate(sides):
            if u != t:
                term = term * ad
        top = term if top is None else top + term
        bottom = sides[t][1] if bottom is None else bottom * sides[t][1]
    if top.is_zero:
        return None
    # the product of the denominators has no factor v
    p, q = top.cancel(bottom, include=True)
    j = min(m for (m,) in p.monoms())
    return k + j, p.exquo(shift ** j).mul_ground(1 / q.LC()), q.monic()


def _agrees_with_sympy(sympy, to_sympy, s, addends):
    """Is the Scalar s the sum of `addends` (objects with .num and .den,
    not necessarily reduced) as sympy reduces it?"""
    expected = _sympy_sum(sympy, to_sympy, addends)
    if expected is None:
        assert s == ZERO
        return
    k, p, q = expected
    (sn, ks), (sd, kd) = to_sympy(s.num), to_sympy(s.den)
    assert kd == 0 and ks == k
    assert sd == q
    assert sn == p


def _over_vectors(*xs):
    """Do all the Scalars xs keep their denominators as exponent vectors?"""
    return all(isinstance(x.den, scalars._Den) for x in xs)


def test_sum_matches_sympy_cancel():
    """a + b for a = n1 / d1 and b = n2 / d2: both denominators products of
    Phi_k (the lcm of exponent vectors), or either with a cofactor or a
    Q(i)-half (the product); and the n-ary `scalar_sum` of three or four
    such fractions, one of them cancelled by its negative in some draws."""
    sympy, to_sympy, side, build = _sympy_sides()
    from hypothesis import given, settings
    from hypothesis import strategies as st

    paths = {"lcm": 0, "product": 0}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(side, side, side, side)
    def check(n1, d1, n2, d2):
        a = build(*n1) / build(*d1)
        b = build(*n2) / build(*d2)
        paths["lcm" if _over_vectors(a, b) else "product"] += 1
        _agrees_with_sympy(sympy, to_sympy, a + b, [a, b])

    check()
    assert paths["lcm"] and paths["product"]

    sizes = {"cancelled": 0, "nonzero": 0}

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(side, side), min_size=3, max_size=4), st.booleans())
    def check_nary(fractions, cancel):
        addends = [build(*n) / build(*d) for n, d in fractions]
        if cancel:
            addends.append(-addends[0])
        sizes["cancelled" if cancel else "nonzero"] += 1
        _agrees_with_sympy(sympy, to_sympy, scalars.scalar_sum(addends), addends)

    check_nary()
    assert sizes["cancelled"] and sizes["nonzero"]


def test_sum_is_formed_over_the_lcm(monkeypatch):
    """1/[3]! + 1/[4]! = v^6 / D3 + v^12 / D4: the denominators
    D3 = Phi_3 Phi_6 Phi_8 Phi_12 (degree 12) and
    D4 = Phi_3 Phi_6 Phi_8^2 Phi_12 Phi_16 (degree 24) have D4 as their lcm,
    and their product has degree 36.  Over the lcm the numerator is
    v^6 (Phi_8 Phi_16 + v^6), of span 12; over the product it would be
    v^6 (D4 + v^6 D3), of span 24.  The one trial division sees the first,
    and only against Phi_3, Phi_6 and Phi_12, whose top exponents both
    addends reach."""
    a, b = qfact(3).inverse(), qfact(4).inverse()
    assert _over_vectors(a, b)
    seen = []
    original = scalars._strip

    def recording(p, vec):
        seen.append((p, dict(vec)))
        return original(p, vec)

    monkeypatch.setattr(scalars, "_strip", recording)
    s = a + b
    monkeypatch.setattr(scalars, "_strip", original)
    (num, vec), = seen
    assert vec == {3: 1, 6: 1, 12: 1}
    lcm = scalars._phi_product({3: 1, 6: 1, 8: 2, 12: 1, 16: 1})
    assert lcm == b.den and max(lcm) == 24
    assert min(num) == 6 and max(num) - min(num) == 12
    assert Scalar(num, dict(lcm)) == s
    assert s * qfact(4) == qint(4) + ONE


def _phi(k):
    return Scalar({e: scalars.GaussianRational(c) for e, c in enumerate(scalars._cyclotomic(k)) if c})


def _ref_strip(p, vec):
    """`scalars._strip` by plain trial division over Q(i), with no root
    test, no integer form and no memo: q is p and left is vec when nothing
    divides."""
    if len(p) == 1 or not vec:
        return p, vec, False
    s = min(p)
    q = scalars._to_dense({e - s: c for e, c in p.items()})
    left = {}
    for k, m in vec.items():
        phi = [scalars.GaussianRational(c) for c in scalars._cyclotomic(k)]
        j = 0
        while j < m:
            quotient, remainder = scalars._dense_divmod(q, phi)
            if remainder:
                break
            q, j = quotient, j + 1
        left[k] = m - j
    split = any(c.re for c in q) and any(c.im for c in q) and any(n for k, n in left.items() if k % 4 == 0)
    if left == vec:
        return p, vec, split
    return {e + s: c for e, c in enumerate(q) if c}, left, split


def _random_laurent(rng):
    """A random Laurent polynomial of 1-4 terms with exponents down to -5
    and int, Fraction or Gaussian coefficients."""
    G = scalars.GaussianRational
    kinds = (
        lambda: G(rng.choice((-3, -2, -1, 1, 2, 5))),
        lambda: G(Fraction(rng.choice((-3, -1, 1, 5)), rng.choice((2, 3, 4)))),
        lambda: G(rng.randint(-2, 2), rng.choice((-2, -1, 1, 3))),
        lambda: G(Fraction(rng.randint(-2, 2), 3), Fraction(rng.choice((-1, 1)), 2)),
    )
    return {e: rng.choice(kinds)() for e in rng.sample(range(-5, 6), rng.randint(1, 4))}


def _strip_case(rng):
    """(p, vec): p a random Laurent polynomial times a random product of
    Phi_k, vec a random exponent vector over the same orders, each
    multiplicity at most 3; one vector in three has Phi_1, Phi_2 and
    Phi_4 alone."""
    orders = (1, 2, 4) if rng.random() < 1 / 3 else (1, 2, 3, 4, 6, 8, 12)
    p = _random_laurent(rng)
    for k in rng.sample(orders, rng.randint(0, 3)):
        for _ in range(rng.randint(1, 3)):
            p = scalars._pmul(p, _phi(k).num)
    vec = {k: rng.randint(1, 3) for k in rng.sample(orders, rng.randint(1, 3))}
    return p, vec


def test_memoised_strip_is_the_reference_trial_division(fresh_memos):
    """`_strip` gives what plain trial division over Q(i) gives, called
    cold and again warm on equal but distinct arguments, and returns the
    caller's own p and vec when nothing divides."""
    rng = random.Random(25)
    divided = kept = kept_at_roots = 0
    for _ in range(400):
        p, vec = _strip_case(rng)
        want = _ref_strip(p, vec)
        for q, v in ((p, vec), (dict(p), dict(vec))):
            got = scalars._strip(q, v)
            assert got == want, (p, vec)
            if want[0] is p:
                assert got[0] is q and got[1] is v
        divided += want[0] is not p
        kept += want[0] is p and len(p) > 1
        kept_at_roots += want[0] is p and len(p) > 1 and vec.keys() <= {1, 2, 4}
    assert divided > 100 and kept > 100 and kept_at_roots > 50
    assert scalars._STRIPS


def _root_tests_agree(p, k):
    """`_root_misses` rules out Phi_k (k in 1, 2, 4) exactly when trial
    division in integers leaves a remainder in the real or the imaginary
    part of p, a zero part counting as divisible."""
    phi = scalars._cyclotomic(k)
    _, re, im = scalars._int_poly(p, min(p))
    divides = all(not any(a) or scalars._int_div(a, phi) is not None for a in (re, im))
    assert scalars._root_misses(p, (k,)) != divides, (p, k)


def test_root_tests_agree_with_trial_division():
    """The root tests on a polynomial dict rule out Phi_1, Phi_2 or Phi_4
    exactly when trial division finds a remainder, on integer polynomials."""
    phis = {k: scalars._cyclotomic(k) for k in (1, 2, 4)}
    rng = random.Random(33)
    for _ in range(300):
        a = [rng.randint(-2, 2) for _ in range(rng.randint(1, 9))]
        for k, phi in phis.items():
            if rng.random() < 0.5:
                a = scalars._int_mul(a, phi)
            if any(a):
                _root_tests_agree({e: scalars.GaussianRational(c) for e, c in enumerate(a) if c}, k)


def test_dict_root_tests_agree_with_misses():
    """The root tests on a polynomial dict agree with trial division on
    its dense integer parts, negative exponents and Gaussian and Fraction
    coefficients included."""
    rng = random.Random(41)
    for _ in range(400):
        p = _random_laurent(rng)
        for k in rng.sample((1, 2, 4), rng.randint(0, 3)):
            p = scalars._pmul(p, _phi(k).num)
        for k in (1, 2, 4):
            _root_tests_agree(p, k)


def test_repeated_strip_runs_no_division(monkeypatch, fresh_memos):
    """A (numerator, vector) pair is divided once: the second call, on
    equal but distinct arguments, runs no `_divide_out`."""
    calls = []
    original = scalars._divide_out

    def counting(re, im, k, limit):
        calls.append(k)
        return original(re, im, k, limit)

    monkeypatch.setattr(scalars, "_divide_out", counting)
    p3, p8 = _phi(3).num, _phi(8).num
    cases = [
        (scalars._pmul(p3, {-2: scalars.GQ_ONE, 1: scalars.GQ_I}), {3: 2, 8: 1}),  # Phi_3 divides
        (scalars._pmul(p8, p8), {1: 1, 8: 3}),  # Phi_8^2 divides
        (p3, {8: 1}),  # nothing divides
        (_phi(1).num, {1: 1, 2: 1}),  # past the root tests
    ]
    for p, vec in cases:
        first = scalars._strip(p, vec)
        assert calls
        calls.clear()
        assert scalars._strip(dict(p), dict(vec)) == first
        assert calls == []


def test_orders_is_the_brute_force_totient_search():
    """`_orders(d)` lists every k with phi(k) <= d.  phi(k) >= sqrt(k / 2),
    so k <= 2 d^2 bounds the search; phi comes from a sieve."""
    n = 2 * 40 ** 2
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    for d in range(1, 41):
        assert scalars._orders(d) == [k for k in range(1, n + 1) if phi[k] <= d], d


def test_dense_divmod_quotient_length():
    """Exact quotients have deg a - deg b + 1 entries, for deg a = deg b and
    deg a = deg b + 3, and Euclid finds a cofactor v^2 + 3."""
    G = scalars.GaussianRational

    def dense(*cs):
        return [G(c) for c in cs]

    def times(x, y):
        out = [G(0)] * (len(x) + len(y) - 1)
        for i, c in enumerate(x):
            for j, d in enumerate(y):
                out[i + j] = out[i + j] + c * d
        return out

    b = dense(3, 0, 1)  # v^2 + 3
    for q in (dense(2), dense(-1, Fraction(1, 2), 0, 4), [G(1, 1), G(0), G(0), G(0, -1)]):
        a = times(q, b)
        quotient, remainder = scalars._dense_divmod(a, b)
        assert quotient == q and remainder == []
        assert len(quotient) == len(a) - len(b) + 1
    quotient, remainder = scalars._dense_divmod(dense(1, 0, 0, 0, 1), b)
    assert len(quotient) == 3 and remainder == dense(10)
    assert scalars._dense_divmod(dense(1, 1), b) == ([], dense(1, 1))
    x = scalars._pmul({0: G(3), 2: G(1)}, {0: G(-1), 1: G(1)})
    y = scalars._pmul({0: G(3), 2: G(1)}, {0: G(2), 3: G(1)})
    assert scalars._poly_gcd(x, y) == {0: G(3), 2: G(1)}


def _differential_cases():
    """(name, product factors or sum addends, result over an exponent
    vector?) for the differential tests of products and sums."""
    p1, p2, p3, p4, p8 = (_phi(k) for k in (1, 2, 3, 4, 8))
    e = (Q - Q ** -1).inverse()
    products = [
        ("real numerators over Phi_k products",
         [p3 * (V + _n(2)) / (p2 * p8), p8 * p2 / (p3 ** 2 * p1)], True),
        ("1/[3]! times [3]", [qfact(3).inverse(), qint(3)], True),
        ("a Gaussian numerator shares one half of Phi_4",
         [(V - I_UNIT) * (V + _n(2)) / p3, (p4 * p2).inverse()], False),
        ("a Gaussian numerator shares one half of Phi_8",
         [(V ** 2 + I_UNIT) * V / p1, V / (p8 * p3)], False),
        ("a Gaussian numerator shares no half of Phi_4", [(V + _n(2) * I_UNIT) / p3, p4.inverse()], True),
        ("a v^2 + 3 cofactor", [(V + ONE) / (V ** 2 + _n(3)), (V ** 2 + _n(3)) / (p4 * p1)], True),
        ("a v^2 + 3 cofactor that stays", [(V - ONE) / (V ** 2 + _n(3)), p2.inverse()], False),
    ]
    sums = [
        ("one addend alone reaches the top of Phi_4", [p4 ** -2, V / p4, p3.inverse()], True),
        ("one addend alone reaches Phi_8^2 and Phi_16", [qfact(3).inverse(), qfact(4).inverse()], True),
        ("a Gaussian sum shares one half of Phi_4", [I_UNIT / p4, V / p4], False),
        ("a Gaussian sum shares one half of Phi_8", [V ** 2 / p8, I_UNIT / p8], False),
        ("a v^2 + 3 cofactor", [(V ** 2 + _n(3)).inverse(), p2.inverse()], False),
        ("trap: a group of two over one denominator sums to 1", [Q * e, -Q ** -1 * e, p3.inverse()], True),
        ("trap: one group divisible by Phi_2", [V / p2, p2.inverse()], True),
        ("trap: a group of two divisible by Phi_1 only",
         [V ** 2 / (p1 * p3), -(p1 * p3).inverse(), p3 ** -2], True),
    ]
    return products, sums


def _full_normaliser(pairs):
    """The sum of the fractions (num, den) over the product of their
    denominators, through `Scalar.__init__` alone."""
    den = {0: scalars.GQ_ONE}
    for _, d in pairs:
        den = scalars._pmul(den, d)
    num = {}
    for t, (n, _) in enumerate(pairs):
        for u, (_, d) in enumerate(pairs):
            if u != t:
                n = scalars._pmul(n, d)
        num = scalars._padd(num, n)
    return Scalar(num, den)


def test_products_and_sums_match_the_full_normaliser_and_sympy():
    """Cross-cancelled products and `scalar_sum` equal the full
    normaliser key for key, and sympy's cancel over QQ_I; the cases where
    a Gaussian numerator may share one Q(i)-half of Phi_4 or Phi_8, or a
    v^2 + 3 cofactor stays, end over plain dicts, the others over exponent
    vectors."""
    from types import SimpleNamespace

    sympy, to_sympy, _, _ = _sympy_sides()
    products, sums = _differential_cases()
    # a result over an odd power of Phi_1 checks the sign that bar takes
    assert any(vector and (x * y).den.phi.get(1, 0) % 2 for _, (x, y), vector in products)
    for name, (x, y), vector in products:
        assert _over_vectors(x, y) or "cofactor" in name, name
        full = _full_normaliser([(scalars._pmul(x.num, y.num), scalars._pmul(x.den, y.den))])
        unreduced = SimpleNamespace(num=full.num, den=full.den)
        for s in (x * y, y * x):
            assert (s.num, s.den) == (full.num, full.den), name
            assert _over_vectors(s) == _over_vectors(full) == vector, name
            _agrees_with_sympy(sympy, to_sympy, s, [unreduced])
            _bar_is_the_substitution(s, name)
    for name, addends, vector in sums:
        full = _full_normaliser([(a.num, a.den) for a in addends])
        for order in (addends, addends[::-1]):
            s = scalars.scalar_sum(order)
            assert (s.num, s.den) == (full.num, full.den), name
            assert _over_vectors(s) == _over_vectors(full) == vector, name
            _agrees_with_sympy(sympy, to_sympy, s, order)
            _bar_is_the_substitution(s, name)


def _bar_is_the_substitution(s, name):
    """s.bar() equals the full normaliser of v -> 1/v applied to num and
    den; over an exponent vector it keeps the denominator, and Phi_1(1/v)
    = -v^-1 Phi_1(v) gives the sign."""
    barred = Scalar({-e: c for e, c in s.num.items()}, {-e: c for e, c in s.den.items()})
    assert (s.bar().num, s.bar().den) == (barred.num, barred.den), name


def _sum_pool():
    """Addends over 1, over products of Phi_k, with a cofactor, and
    Gaussian numerators over Phi_4 that may share one of its halves."""
    phi4 = V ** 2 + ONE
    return [
        ONE, V ** -2, qint(3) + V, Scalar.gaussian(2, -1) * V ** 3,
        qfact(3).inverse(), qfact(4).inverse() * qint(2), (Q - Q ** -1).inverse(),
        (ONE - Q ** 4).inverse() * V, qfact(2).inverse() * Q ** 3,
        (V ** 2 + _n(3)).inverse(), (V - _n(2)) / ((V ** 4 - ONE) * (V ** 2 + _n(3))),
        (V + _n(2) * I_UNIT) / phi4, (V - I_UNIT) * V / phi4 ** 2, I_UNIT / phi4,
    ]


def test_scalar_sum_is_the_left_fold(monkeypatch):
    """scalar_sum equals the left fold of + on random lists, including
    lists whose addends cancel, with at most one normalisation."""
    from functools import reduce

    pool = _sum_pool()
    rng = random.Random(31)
    inits = []
    original_init = Scalar.__init__

    def counting_init(self, num, den=None, _reduced=False):
        inits.append(den)
        original_init(self, num, den, _reduced)

    zeros = 0
    for _ in range(80):
        addends = [rng.choice(pool) * rng.choice((ONE, -ONE, Q, _n(3))) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            addends += [-x for x in addends[:rng.randint(1, len(addends))]]
        rng.shuffle(addends)
        folded = reduce(lambda x, y: x + y, addends, ZERO)
        monkeypatch.setattr(Scalar, "__init__", counting_init)
        s = scalars.scalar_sum(addends)
        monkeypatch.setattr(Scalar, "__init__", original_init)
        assert len(inits) <= 1
        inits.clear()
        assert s == folded
        assert Scalar(dict(s.num), dict(s.den)) == s
        zeros += not s
    assert zeros
    assert scalars.scalar_sum([]) == ZERO


def test_braid_image_products_have_canonical_coefficients():
    """Straightening sums the coefficients that meet on a key once, over
    their lcm: every coefficient comes out canonical."""
    rng = random.Random(32)
    g2 = cartan_datum("G", 2)
    gens = [Element.E(g2, 1), Element.E(g2, 2), Element.F(g2, 1), Element.F(g2, 2)]
    images = [apply_word(w, x) for w in ((1, 2), (2, 1, 2)) for x in gens]
    for _ in range(6):
        prod = rng.choice(images) * rng.choice(images)
        assert prod.terms
        for c in prod.terms.values():
            assert c and Scalar(dict(c.num), dict(c.den)) == c


# -- coefficients: ints when integral, Fractions otherwise --

def _components(c):
    return type(c.re), type(c.im)


def _integral(x):
    return Fraction(x).denominator == 1


def test_components_are_ints_exactly_when_integral():
    G = scalars.GaussianRational
    built = G(Fraction(6, 3), Fraction(-4, 2))
    assert _components(built) == (int, int) and built.re == 2 and built.im == -2
    assert _components(G(Fraction(1, 2), 3)) == (Fraction, int)
    ints = [G(2, 0), G(-3, 5), G(0, 1)]
    fracs = [G(Fraction(1, 2), 0), G(Fraction(3, 2), Fraction(-1, 2)), G(Fraction(2, 3), Fraction(1, 3))]
    pairs = [(x, y) for x in ints for y in ints]
    pairs += [(x, y) for x in ints for y in fracs] + [(y, x) for x in ints for y in fracs]
    pairs += [(x, y) for x in fracs for y in fracs]
    for x, y in pairs:
        results = [x + y, x - y, x * y, x / y, -x]
        for c in results:
            for part in (c.re, c.im):
                assert (type(part) is int) == _integral(part)
    # int / int is exact, whether or not it is integral
    assert G(6, 4) / G(2, 0) == G(3, 2) and _components(G(6, 4) / G(2, 0)) == (int, int)
    assert G(1, 0) / G(2, 0) == G(Fraction(1, 2), 0)
    assert G(1, 0) / G(1, 1) == G(Fraction(1, 2), Fraction(-1, 2))
    # a Fraction sum that is integral comes back as an int
    half = G(Fraction(1, 2), Fraction(1, 2))
    assert _components(half + half) == (int, int)
    assert _components(half * G(2, 0)) == (int, int)


def test_int_and_fraction_built_values_agree():
    G = scalars.GaussianRational
    for re, im in [(2, 0), (-3, 5), (0, 1), (7, -1)]:
        a = G(re, im)
        b = G(Fraction(2 * re, 2), Fraction(3 * im, 3))
        assert a == b and hash(a) == hash(b)
        c = G(Fraction(2 * re + 1, 2)) - G(Fraction(1, 2)) + G(0, im)
        assert a == c and hash(a) == hash(c)
        assert (a == re and hash(a) == hash(re)) if not im else a != re
    half = G(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    s = Scalar({0: G(2), 3: G(Fraction(1, 3))})
    t = Scalar({0: G(Fraction(4, 2)), 3: G(Fraction(2, 6))})
    assert s == t and hash(s) == hash(t)
    assert Scalar.gaussian(Fraction(8, 4)) == Scalar.gaussian(2)
    assert hash(Scalar.gaussian(Fraction(8, 4))) == hash(Scalar.gaussian(2))
    assert ONE != 1


def test_gaussian_rational_repr():
    G = scalars.GaussianRational
    assert repr(G(2)) == "GaussianRational(Fraction(2, 1), Fraction(0, 1))"
    assert repr(G(Fraction(6, 3), -1)) == "GaussianRational(Fraction(2, 1), Fraction(-1, 1))"
    assert repr(G(Fraction(1, 2), Fraction(-2, 3))) == "GaussianRational(Fraction(1, 2), Fraction(-2, 3))"


# -- products with a unit monomial c * v^k: one shift, no normalisation --

def _denominator_kinds():
    """Scalars whose denominators are 1, cyclotomic, Gaussian, and
    cyclotomic times a cofactor."""
    return [
        qint(3) + V,
        qfact(4).inverse() * qint(3),
        (V ** 2 + ONE) / (V ** 3 - I_UNIT),
        (V - _n(2)) * (V + ONE) / ((V ** 4 - ONE) * (V ** 2 + _n(3))),
    ]


def test_shift_is_the_product_by_a_v_power():
    for x in _denominator_kinds():
        for k in range(-5, 6):
            y = x.shifted(k)
            assert y == x * Scalar.v_pow(k) == Scalar.v_pow(k) * x
            # the normaliser's own result for the same fraction
            assert y == Scalar({e + k: c for e, c in x.num.items()}, dict(x.den))
            assert y.den is x.den


def test_monomial_products_never_normalise(monkeypatch):
    xs = [x for x in _denominator_kinds() if len(x.den) > 1]
    monomials = [Scalar.v_pow(k) for k in (-3, 0, 2)]
    monomials += [Scalar.gaussian(2, -1) * V ** 3, Scalar.gaussian(Fraction(-1, 3)) * V ** -2]
    expected = [Scalar(scalars._pmul(x.num, m.num), dict(x.den)) for x in xs for m in monomials]
    calls = []
    original_cancel, original_strip, original_init = scalars._cancel, scalars._strip, Scalar.__init__

    def counting_cancel(num, den, shift, reduced):
        calls.append("cancel")
        return original_cancel(num, den, shift, reduced)

    def counting_strip(p, vec):
        calls.append("strip")
        return original_strip(p, vec)

    def counting_init(self, num, den=None, _reduced=False):
        calls.append("init")
        original_init(self, num, den, _reduced)

    monkeypatch.setattr(scalars, "_cancel", counting_cancel)
    monkeypatch.setattr(scalars, "_strip", counting_strip)
    monkeypatch.setattr(Scalar, "__init__", counting_init)
    products = [x * m for x in xs for m in monomials] + [m * x for x in xs for m in monomials]
    assert calls == []
    assert products == expected + expected


def test_polynomial_sums_never_normalise(monkeypatch):
    polys = [ONE, V ** -2, qint(3) + V, Scalar.gaussian(2, -1) * V ** 3 - V, Q + Q ** -1]
    polys += [-x for x in polys] + [Scalar.gaussian(Fraction(-1, 3)) * V ** 4 + I_UNIT]
    assert all(len(x.den) == 1 for x in polys)
    expected = [Scalar(scalars._padd(x.num, y.num)) for x in polys for y in polys]
    assert ZERO in expected
    calls = []
    original_cancel, original_strip, original_init = scalars._cancel, scalars._strip, Scalar.__init__

    def counting_cancel(num, den, shift, reduced):
        calls.append("cancel")
        return original_cancel(num, den, shift, reduced)

    def counting_strip(p, vec):
        calls.append("strip")
        return original_strip(p, vec)

    def counting_init(self, num, den=None, _reduced=False):
        calls.append("init")
        original_init(self, num, den, _reduced)

    monkeypatch.setattr(scalars, "_cancel", counting_cancel)
    monkeypatch.setattr(scalars, "_strip", counting_strip)
    monkeypatch.setattr(Scalar, "__init__", counting_init)
    sums = [x + y for x in polys for y in polys]
    assert calls == []
    assert sums == expected
    assert all(s.den is scalars._DEN_ONE for s in sums)


def test_power_by_repeated_squaring(monkeypatch):
    """`Scalar.__pow__` gives the repeated product in O(log |n|) products,
    so a huge exponent of a monomial is instant."""
    calls = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert V ** 1000 == Scalar.v_pow(1000)
    assert len(calls) <= 2 * (1000).bit_length()
    monkeypatch.undo()
    assert V ** 10 ** 9 == Scalar.v_pow(10 ** 9)
    assert V ** -(10 ** 9) == Scalar.v_pow(-(10 ** 9))
    x = (ONE + Q + I_UNIT) / (ONE - Q ** 3)
    product = ONE
    for n in range(1, 12):
        product = product * x
        assert x ** n == product and x ** -n == product.inverse(), n
        assert scalar_to_text(x ** n) == scalar_to_text(product), n
    assert x ** 0 == ONE and x ** 1 is x


def test_refusals_and_edge_values_that_no_suite_meets():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        Scalar({0: scalars.GQ_ONE}, {})
    with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
        scalars.GaussianRational(1, 2) / scalars.GaussianRational(0)
    with pytest.raises(ValueError, match="m must be nonnegative"):
        qbinom_eps(-1, 0)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        qshifted_factorial(Q, -1)
    assert qint(0) is ZERO and qint(0, -1) is ZERO
    for n in (1, 2, 5):
        assert qint(-n) == -qint(n) and qint(-n, 2) == -qint(n, 2), n
    assert -ZERO is ZERO
    assert scalars._pmul({}, {0: scalars.GQ_ONE}) == {} == scalars._pmul({0: scalars.GQ_ONE}, {})
    x, y = (ONE + V).inverse(), (ONE - Q).inverse()
    assert scalars.scalar_sum((x, ZERO, y)) == x + y
    assert scalars.scalar_sum((ZERO, ZERO)) is ZERO


def test_scalars_are_immutable_and_compare_only_with_numbers():
    g = scalars.GaussianRational(1, -2)
    for value, name in ((g, "re"), (Q, "num")):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, 0)
    assert g.__eq__("1 - 2i") is NotImplemented and g != "1 - 2i"
    assert scalars.GaussianRational(3) == 3 and Q.__eq__(1) is NotImplemented


def test_reprs_show_the_exact_value():
    assert repr(scalars.GaussianRational(1, -2)) == "GaussianRational(Fraction(1, 1), Fraction(-2, 1))"
    assert repr(Scalar.v_pow(2) + I_UNIT) == "Scalar('v^2 + i')"


def test_small_real_integers_are_shared():
    """Negations, sums and products whose value is a real int in the table's
    range return the table's object, equal to and hashing like the same int
    built directly; results out of range, with an imaginary part or with a
    Fraction component are built as before, and no shared value can be
    assigned to."""
    G, bound = scalars.GaussianRational, scalars._SMALL_BOUND
    table = {n: scalars._SMALL[n] for n in range(-bound, bound + 1)}
    assert scalars.GQ_ZERO is table[0] and scalars.GQ_ONE is table[1]
    for n, g in table.items():
        assert g.re == n and type(g.re) is int and g.im == 0 and type(g.im) is int
        assert g == G(n) and hash(g) == hash(G(n)) == hash(n)
        assert -G(-n) is g
    assert G(10) + G(6) is table[16] and G(-7) + G(-9) is table[-16]
    assert G(3, 2) + G(4, -2) is table[7] and G(4) * G(-4) is table[-16]
    assert G(1, 1) * G(1, -1) is table[2] and G(0, 3) * G(0, 3) is table[-9]
    for big in (G(10) + G(7), -G(17), G(5) * G(5), G(-13) * G(5)):
        assert abs(big.re) > bound and all(big is not g for g in table.values())
        assert big == G(big.re) and hash(big) == hash(big.re)
    gauss = G(2, 1) + G(1, 1)
    assert gauss == G(3, 2) and all(gauss is not g for g in table.values())
    one = G(Fraction(1, 2)) * G(2)
    assert one == 1 and type(one.re) is int and one.re == 1 and one.im == 0
    half = G(Fraction(1, 2)) + G(0)
    assert half == Fraction(1, 2) and half not in table.values()
    for g in (table[0], table[1], table[-1], table[bound]):
        for name in ("re", "im"):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(g, name, 5)
    assert table[5].re == 5 and scalars.GQ_ONE.re == 1
