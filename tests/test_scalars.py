import random

from qcoideal.scalars import (
    ONE,
    ZERO,
    Scalar,
    is_bar_fixed,
    qbinom,
    qbinom_eps,
    qint,
    qshifted_factorial,
)

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


def test_qbinom_basics():
    assert qbinom(2, 1, Q) == Q + Q ** -1
    assert qbinom(3, 0, Q) == ONE
    assert qbinom(3, 5, Q) == ZERO
    assert qbinom(3, -1, Q) == ZERO
    # base q_i = q^2
    assert qbinom(2, 1, Q ** 2) == Q ** 2 + Q ** -2


def test_qbinom_alternating_sum_identity():
    # sum_k (-1)^k [2 k]_q q^{3k} = (1 - q^2)(1 - q^4)
    total = ZERO
    for k in range(3):
        term = qbinom(2, k, Q) * Q ** (3 * k)
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
    pool = [ONE, Q, -Q, Q ** -1, Q ** 2, ONE + Q ** 2, qint(2, 1), Scalar.i_unit()]
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


def test_bar_fixes_gaussian_unit():
    i = Scalar.i_unit()
    assert i.bar() == i
    assert i * i == Scalar.from_int(-1)
