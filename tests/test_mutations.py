"""Planted bugs: each mutant of the engine must make a named check fail.

Every "zero" or "equal" verdict trusts straightening, the zero walk and
the canonical form of scalars, so a bug in any one must fail loudly.  Each
mutant patches one point with monkeypatch: the sign of the E-F commutator,
the q-power that K picks up moving past an F-word, the key of the table of
normal-ordered products F_f E_e, the sign that a row of that table gives
its base, the q-power of a letter deletion in the zero walk, the table of
good words along which the walk deletes letters, the key of the memo of
braid images of words, the cross-cancellation of scalar products, the
reduction of a sum whose addends share a denominator, the sign of the
q-power that each side of a coproduct split carries, the q-power that the
torus part gives a left skew derivation, the integer polynomials that
the zero walk reads its coefficients as (their imaginary parts, and the
one scale that clears every denominator), the digit width of the ints
the walk packs those polynomials into (check `mixed-sign-coefficient`,
a nonzero verdict that a false "zero" fails), the dropping of a key whose
deferred sum vanishes, the key of the memo of trial divisions, and the
value of i^2 among the fourth roots of unity (check `fourth-root`), and
the bar of the split-node rule that `corollary_conditions` shares with
`in_set_D` (check `split-rule`, the two bar deciders node by node).  Two
mutants sit in the straightening kernel that one-pass q-commutators x y -
v^s y x share with products: one drops v^s from the y x side and one
adds that side instead of subtracting it; both fail `serre-g2`, whose
q-commutators have the shifts v^{+-6} and v^{+-2}.  The unpatched engine
passes every check, and each mutant fails the check named for it.  Each
check builds a fresh datum and runs with every namespace of the
process-wide `MEMOS` emptied (the fixture `fresh_memos`), the scalar memos
and the named data among them, so no memo filled by the unpatched engine
or by another test hides a mutant.
"""

import sys

import pytest

from qcoideal import barcheck, qsp, scalars, uqg
from qcoideal.braid import BraidOperator, apply_braid
from qcoideal.cartan import CartanDatum, cartan_datum, validate_admissible
from qcoideal.scalars import I_UNIT, ONE, Scalar, qfact, qint
from qcoideal.uqg import (
    Element,
    coproduct,
    equals,
    is_zero,
    serre_polynomial,
    sigma,
    skew_ir,
    skew_r,
    tensor_equals,
)

Q = Scalar.q_pow(1)


def _a2():
    return CartanDatum(((2, -1), (-1, 2)))


def check_ef_commutator():
    """E_1 F_1 - F_1 E_1 = (K_1 - K_1^{-1}) / (q - q^{-1})."""
    d = _a2()
    E1, F1 = Element.E(d, 1), Element.F(d, 1)
    cartan = (Element.K_i(d, 1) - Element.K_i(d, 1, -1)).scale((Q - Q ** -1).inverse())
    return equals(E1 * F1 - F1 * E1, cartan)


def check_k_past_f():
    """K_1 F_2 K_1^{-1} = q^{-(alpha_1, alpha_2)} F_2 = q F_2."""
    d = _a2()
    F2 = Element.F(d, 2)
    return equals(Element.K_i(d, 1) * F2 * Element.K_i(d, 1, -1), F2.scale(Q))


def _f2_e1(warm):
    """F_2 E_1 = E_1 F_2 on A2, after F_1 E_1 has filled its entry of the
    commutation table when warm."""
    d = _a2()
    if warm:
        Element.F(d, 1) * Element.E(d, 1)
    return equals(Element.F(d, 2) * Element.E(d, 1), Element.E(d, 1) * Element.F(d, 2))


def check_commute_warm():
    """F_2 E_1 = E_1 F_2, read from the commutation table after it holds
    the expansion of F_1 E_1 for the same E-word."""
    return _f2_e1(warm=True)


def check_quantum_serre():
    """E_1^2 E_2 - [2] E_1 E_2 E_1 + E_2 E_1^2 = 0."""
    d = _a2()
    return is_zero(serre_polynomial(d, 1, 2, Element.E(d, 1), Element.E(d, 2)))


def check_serre_g2():
    """The quantum Serre relations of G2 on E_1 and E_2, both ways round:
    a_12 = -1 (q-commutators with v^{+-6}) and a_21 = -3 (v^{+-6}, v^{+-2})."""
    d = CartanDatum(cartan_datum("G", 2).A)
    E1, E2 = Element.E(d, 1), Element.E(d, 2)
    return is_zero(serre_polynomial(d, 1, 2, E1, E2)) and is_zero(serre_polynomial(d, 2, 1, E2, E1))


def check_q_commutator():
    """E_1 E_2 - q^{-1} E_2 E_1 is not zero: its coordinate at the good word
    21 vanishes, so only the good word 12 tells it from zero."""
    d = _a2()
    E1, E2 = Element.E(d, 1), Element.E(d, 2)
    return not is_zero(E1 * E2 - (E2 * E1).scale(Q ** -1))


def check_braid_inverse_warm():
    """T'_{1,-1}(T''_{1,1}(x)) = x for x = E_1 E_2, after T''_{1,-1} has
    memoised the images of the words of x."""
    d = _a2()
    x = Element.E(d, 1, 2)
    apply_braid(BraidOperator(1, True, -1), x)
    op = BraidOperator(1, True, 1)
    return equals(apply_braid(op.inverse(), apply_braid(op, x)), x)


def check_cross_cancellation():
    """(1/[2]) [2] = 1 and (1/[3]!) [3] = 1/[2]: the factors that cancel sit
    in the numerator of the right operand and the denominator of the
    left."""
    return qint(2).inverse() * qint(2) == ONE and qfact(3).inverse() * qint(3) == qint(2).inverse()


def check_sum_over_one_denominator():
    """q/(q - q^-1) - q^-1/(q - q^-1) + 1/[3] = 1 + 1/[3]: the two addends over
    (q - q^-1) alone reach its factors, and their sum is divisible by all
    of them."""
    e = (Q - Q ** -1).inverse()
    return scalars.scalar_sum([Q * e, -(Q ** -1 * e), qint(3).inverse()]) == ONE + qint(3).inverse()


def _coproduct_of_product(d, letters):
    """Delta(x) against the product of the generators' coproducts, for the
    word `letters` of ("E" | "F", node) in normal order."""
    gens = [Element.E(d, i) if kind == "E" else Element.F(d, i) for kind, i in letters]
    x, rhs = gens[0], coproduct(gens[0])
    for g in gens[1:]:
        x, rhs = x * g, rhs * coproduct(g)
    return tensor_equals(coproduct(x), rhs)


def check_coproduct_e_side():
    """Delta(E_1 E_2 F_1) = Delta(E_1) Delta(E_2) Delta(F_1)."""
    return _coproduct_of_product(_a2(), [("E", 1), ("E", 2), ("F", 1)])


def check_coproduct_f_side():
    """Delta(E_1 F_1 F_2) = Delta(E_1) Delta(F_1) Delta(F_2)."""
    return _coproduct_of_product(_a2(), [("E", 1), ("F", 1), ("F", 2)])


def check_skew_ir_torus():
    """The left skew derivation of E_1 E_2 E_1 K_1 is sigma . r_1 . sigma,
    key for key and in order: its torus part gives each deleted letter
    q^{-(alpha_1, alpha_1)}."""
    d = _a2()
    x = Element.monomial(d, (1, 2, 1), (1, 0), ())
    want = sigma(skew_r(1, sigma(x)))
    return list(skew_ir(1, x).terms.items()) == list(want.terms.items())


def check_gaussian_coefficient():
    """E_1 i is not zero: its coefficient is imaginary."""
    d = _a2()
    return not is_zero(Element.E(d, 1).scale(I_UNIT))


def check_mixed_sign_coefficient():
    """(2 - i) E_1 is not zero: its integer polynomial {0: 2, 1: -1} has
    coefficients of both signs, which digits of one bit add up to
    2 - 2 = 0."""
    d = _a2()
    return not is_zero(Element.E(d, 1).scale(Scalar.gaussian(2, -1)))


def check_common_scale():
    """S_1 / (v^2 + 3) + S_2 is not zero, for S_1 = E_1^2 E_2 and S_1 + S_2
    the quantum Serre relation: over one scale it is S_1 + (v^2 + 3) S_2 =
    -(v^2 + 2) S_2, while clearing each coefficient by its own denominator
    gives S_1 + S_2 = 0."""
    d = _a2()
    serre = serre_polynomial(d, 1, 2, Element.E(d, 1), Element.E(d, 2))
    s1 = Element.E(d, 1, 1, 2)
    assert serre.terms[((1, 1, 2), (0, 0), ())] == ONE
    return not is_zero(s1.scale((Scalar.v_pow(2) + Scalar.gaussian(3)).inverse()) + serre - s1)


def check_x_minus_x():
    """x - x has no terms for x = F_1 E_1, whose normal form E_1 F_1 - (K_1 -
    K_1^{-1}) / (q - q^{-1}) has torus terms over q - q^{-1}."""
    d = _a2()
    x = Element.F(d, 1) * Element.E(d, 1)
    return not (x - x).terms


def check_strip_memo():
    """(v^4 - 1) / (v^4 - 1) = 1, and then (v^4 - 1) / (v^4 + 1) keeps its
    numerator: v^4 + 1 = Phi_8 shares no factor with v^4 - 1 = Phi_1 Phi_2
    Phi_4, though the same numerator was divided before."""
    v4 = Scalar.v_pow(4)
    if (v4 - ONE) * (v4 - ONE).inverse() != ONE:
        return False
    s = (v4 - ONE) * (v4 + ONE).inverse()
    return s.num == (v4 - ONE).num and s.den == (v4 + ONE).num


def check_fourth_root():
    """i^n = fourth_root_power(n) for n = -8..8, and s_1 = s_4 = -1 for A4,
    X = {2, 3}, tau the flip, where alpha_j(2 rho_X^vee) = -2."""
    if any(scalars.fourth_root_power(n) != I_UNIT ** n for n in range(-8, 9)):
        return False
    pair = validate_admissible(CartanDatum(cartan_datum("A", 4).A), {2, 3}, {1: 4, 2: 3, 3: 2, 4: 1})
    return qsp.s_value(pair, 1) == qsp.s_value(pair, 4) == Scalar.gaussian(-1)


def check_split_rule():
    """The Z_i identity and the scalar conditions fail on the same nodes of
    A3, X = {2}, tau = (1 3), at c = (q, q) and at c = (q, q^-1).  There
    (alpha_i, Theta(alpha_i) - 2 rho_X) = 2, so the split rule reads
    c_tau(i) = q^2 bar(c_i), and without the bar it fails on node 1 at
    (q, q) and holds on node 3 at (q, q^-1)."""
    pair = validate_admissible(CartanDatum(cartan_datum("A", 3).A), {2}, {1: 3, 2: 2, 3: 1})
    for c3 in (Q, Q ** -1):
        params = qsp.QSPParameters(pair, {1: Q, 3: c3})
        if barcheck.bar_exists(params).failing_nodes != barcheck.corollary_conditions(params).failing_nodes:
            return False
    return True


CHECKS = {
    "ef-commutator": check_ef_commutator,
    "k-past-f": check_k_past_f,
    "commute-warm": check_commute_warm,
    "quantum-serre": check_quantum_serre,
    "q-commutator": check_q_commutator,
    "braid-inverse-warm": check_braid_inverse_warm,
    "cross-cancellation": check_cross_cancellation,
    "sum-over-one-denominator": check_sum_over_one_denominator,
    "coproduct-e-side": check_coproduct_e_side,
    "coproduct-f-side": check_coproduct_f_side,
    "skew-ir-torus": check_skew_ir_torus,
    "gaussian-coefficient": check_gaussian_coefficient,
    "mixed-sign-coefficient": check_mixed_sign_coefficient,
    "common-scale": check_common_scale,
    "x-minus-x": check_x_minus_x,
    "strip-memo": check_strip_memo,
    "serre-g2": check_serre_g2,
    "fourth-root": check_fourth_root,
    "split-rule": check_split_rule,
}


def negate_ef_inverse(monkeypatch):
    original = uqg._ef_inverse
    monkeypatch.setattr(uqg, "_ef_inverse", lambda datum, i: -original(datum, i))


def shift_k_past_f(monkeypatch):
    """Add 2 per letter to the v-exponent that K_{k2} of a right factor
    picks up moving left past a nonempty F-word."""
    original = uqg._pass_shift

    def mutant(datum, r1, e, r2, f):
        return original(datum, r1, e, r2, f) + (2 * len(f) if r2 and f else 0)

    monkeypatch.setattr(uqg, "_pass_shift", mutant)


def _install_cache(monkeypatch, name, cls):
    """Give every new datum an instance of cls as its cache `name`."""
    original = CartanDatum.__init__

    def mutant(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.caches[name] = cls()

    monkeypatch.setattr(CartanDatum, "__init__", mutant)


def key_table_on_e(monkeypatch):
    """Key the commutation table of every new datum on the E-word alone,
    (f, e) -> e, so the expansion stored for one F-word answers for
    another."""

    class FBlind(dict):
        def get(self, key, default=None):
            return dict.get(self, key[1], default)

        def __setitem__(self, key, value):
            dict.__setitem__(self, key[1], value)

    _install_cache(monkeypatch, "commute", FBlind)


def drop_base_sign(monkeypatch):
    """Reach every row of the commutation table through its unsigned base,
    so a row whose coefficient is -v^s base reads +v^s base."""
    original = uqg._commute

    def mutant(datum, f, e):
        bases, negs, rows = original(datum, f, e)
        n = len(bases)
        return bases, negs, tuple((e1, k, f1, j if j < n else negs[j - n], s) for e1, k, f1, j, s in rows)

    monkeypatch.setattr(uqg, "_commute", mutant)


def drop_deletion_qpower(monkeypatch):
    """Delete letters with coefficient 1 instead of their q-power: the
    deletion step that the zero walk reads gives every deletion x = 0."""
    original = uqg._deletions

    def mutant(datum, word, i):
        return [(0, rest) for _x, rest in original(datum, word, i)]

    monkeypatch.setattr(uqg, "_deletions", mutant)


def drop_good_word(monkeypatch):
    """Drop the good word 12 from the A2 table at weight (1, 1)."""
    original = uqg._good_prefixes

    def mutant(datum, nu):
        good = original(datum, nu)
        return good - {(1, 2)} if nu == (1, 1) else good

    monkeypatch.setattr(uqg, "_good_prefixes", mutant)


def drop_braid_sign(monkeypatch):
    """Key the braid word-image memo of every new datum without the sign e,
    (i, e, double_prime, kind, word) -> (i, double_prime, kind, word), so an
    image memoised for one sign answers for the other."""

    class SignBlind(dict):
        def get(self, key, default=None):
            return dict.get(self, key[:1] + key[2:], default)

        def __setitem__(self, key, value):
            dict.__setitem__(self, key[:1] + key[2:], value)

    _install_cache(monkeypatch, "braid", SignBlind)


def skip_c_against_b(monkeypatch):
    """Cross-cancel a product (a / b)(c / d) by trying a against the Phi_k
    of d only: c is never divided by those of b."""
    original = scalars._strip
    mul = Scalar.__mul__.__code__

    def mutant(p, vec):
        caller = sys._getframe(1)
        if caller.f_code is mul and p is caller.f_locals["other"].num:
            return p, vec, False
        return original(p, vec)

    monkeypatch.setattr(scalars, "_strip", mutant)


def sum_groups_as_reduced(monkeypatch):
    """Sum the addends over each denominator first, and pass each group's
    sum on to `scalar_sum` as one addend taken to be reduced."""
    original = scalars.scalar_sum

    def mutant(addends):
        groups = []  # [denominator, numerator sum]
        for a in addends:
            for g in groups:
                if g[0] == a.den:
                    g[1] = scalars._padd(g[1], a.num)
                    break
            else:
                groups.append([a.den, a.num])
        return original([scalars._make(num, den) for den, num in groups if num])

    monkeypatch.setattr(scalars, "scalar_sum", mutant)
    monkeypatch.setattr(uqg, "scalar_sum", mutant)


def _flip_split_sign(monkeypatch, side):
    """Give the q-power of the coproduct splits of E-words (side 1) or of
    F-words (side -1) the wrong sign."""
    original = uqg._splits

    def mutant(datum, word, sign, lo, hi):
        return original(datum, word, -sign if sign == side else sign, lo, hi)

    monkeypatch.setattr(uqg, "_splits", mutant)


def flip_e_split_sign(monkeypatch):
    _flip_split_sign(monkeypatch, 1)


def flip_f_split_sign(monkeypatch):
    _flip_split_sign(monkeypatch, -1)


def drop_skew_torus_shift(monkeypatch):
    """Drop the shift -2 (alpha_i, k) that the torus part K_k gives each
    letter that the left skew derivation deletes; the seam is the pairing
    that `skew_ir` takes itself."""
    original = CartanDatum.bilinear
    code = uqg.skew_ir.__code__

    def mutant(self, beta, gamma):
        if sys._getframe(1).f_code is code:
            return 0
        return original(self, beta, gamma)

    monkeypatch.setattr(CartanDatum, "bilinear", mutant)


def drop_imaginary_parts(monkeypatch):
    """Read the zero walk's coefficients without their imaginary parts, the
    odd keys of `integer_numerators`."""
    original = uqg.integer_numerators

    def mutant(coeffs):
        return {key: {k: n for k, n in p.items() if k % 2 == 0} for key, p in original(coeffs).items()}

    monkeypatch.setattr(uqg, "integer_numerators", mutant)


def clear_each_by_its_own(monkeypatch):
    """Bring each coefficient of the zero walk over its own denominator
    instead of the one common to them all."""
    original = uqg.integer_numerators

    def mutant(coeffs):
        return {key: original({key: c})[key] for key, c in coeffs.items()}

    monkeypatch.setattr(uqg, "integer_numerators", mutant)


def narrow_pack_width(monkeypatch):
    """Pack the zero walk's integer polynomials in digits of one bit, too
    narrow to hold their coefficients apart."""
    original = uqg._pack
    monkeypatch.setattr(uqg, "_pack", lambda polys: original(polys, 1))


def keep_vanishing_sums(monkeypatch):
    """Settle a deferred key whose addends cancel to a zero coefficient
    instead of dropping it."""

    def mutant(out):
        for key, c in out.items():
            if c.__class__ is list:
                out[key] = uqg.scalar_sum(c)
        return out

    monkeypatch.setattr(uqg, "_settle", mutant)


def strip_memo_without_vector(monkeypatch):
    """Key the memo of trial divisions on the numerator alone, so the
    division of a numerator by one exponent vector answers for another."""
    original = scalars._int_key
    monkeypatch.setattr(scalars, "_int_key", lambda p, key=(): original(p))


def drop_commutator_shift(monkeypatch):
    """Straighten every pair of terms without the extra shift, so the y x
    side of x y - v^s y x loses v^s (products pass no shift)."""
    original = uqg._straighten
    monkeypatch.setattr(uqg, "_straighten", lambda datum, out, a, b, c, s=0: original(datum, out, a, b, c))


def add_commutator_swap(monkeypatch):
    """Straighten the y x side of x y - v^s y x with the coefficient
    product c instead of -c: the pair (b, a) that `q_commutator`
    straightens after (a, b)."""
    original = uqg._straighten
    code = uqg.q_commutator.__code__

    def mutant(datum, out, a, b, c, s=0):
        caller = sys._getframe(1)
        if caller.f_code is code and a is caller.f_locals["b"]:
            c = -c
        return original(datum, out, a, b, c, s)

    monkeypatch.setattr(uqg, "_straighten", mutant)


def square_i_to_one(monkeypatch):
    """Give the fourth roots of unity i^2 = +1: i^n reads (i, 1, -i, 1)."""

    def mutant(n):
        return (I_UNIT, ONE, -I_UNIT, ONE)[(n - 1) % 4]

    monkeypatch.setattr(scalars, "fourth_root_power", mutant)
    monkeypatch.setattr(qsp, "fourth_root_power", mutant)


def drop_split_bar(monkeypatch):
    """Read the split-node rule without the bar: c_tau(i) = v^{2x} c_i."""

    def mutant(pair, i, ci, cti):
        return cti == Scalar.v_pow(2 * pair.pairing_theta_2rho(i)) * ci

    monkeypatch.setattr(barcheck, "_split_rule", mutant)


MUTANTS = [
    ("ef-commutator", negate_ef_inverse),
    ("k-past-f", shift_k_past_f),
    ("commute-warm", key_table_on_e),
    ("ef-commutator", drop_base_sign),
    ("quantum-serre", drop_deletion_qpower),
    ("q-commutator", drop_good_word),
    ("braid-inverse-warm", drop_braid_sign),
    ("cross-cancellation", skip_c_against_b),
    ("sum-over-one-denominator", sum_groups_as_reduced),
    ("coproduct-e-side", flip_e_split_sign),
    ("coproduct-f-side", flip_f_split_sign),
    ("skew-ir-torus", drop_skew_torus_shift),
    ("gaussian-coefficient", drop_imaginary_parts),
    ("common-scale", clear_each_by_its_own),
    ("mixed-sign-coefficient", narrow_pack_width),
    ("x-minus-x", keep_vanishing_sums),
    ("strip-memo", strip_memo_without_vector),
    ("serre-g2", drop_commutator_shift),
    ("serre-g2", add_commutator_swap),
    ("fourth-root", square_i_to_one),
    ("split-rule", drop_split_bar),
]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_engine_passes_check(name, fresh_memos):
    assert CHECKS[name]()


@pytest.mark.parametrize("name, mutate", MUTANTS, ids=[m.__name__ for _, m in MUTANTS])
def test_mutant_fails_its_check(monkeypatch, fresh_memos, name, mutate):
    mutate(monkeypatch)
    assert not CHECKS[name]()


def test_table_mutant_passes_on_a_cold_table(monkeypatch):
    """The E-keyed table answers F_2 E_1 correctly while it is cold: only
    an entry filled for another F-word exposes it."""
    key_table_on_e(monkeypatch)
    assert _f2_e1(warm=False)
