"""The checks that planted mutants of the engine must fail, the mutants,
and the runner that plants them in a fresh process.

A mutant is a small edit of the engine's source text: `MUTANTS` maps its
name to the check it must fail and its edits, each (file of the package,
exact old text, new text).  `plant` copies the package and this module
into a directory and applies the edits there; `run_checks` runs checks in
a fresh interpreter that imports that copy:

    PYTHONPATH=COPY python -S -m mutation_checks CHECK...

which exits 0 when every check holds and 1 when one fails.  It imports no
pytest, and it stops with a traceback when the engine it imported lies
outside the copy.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import qcoideal
from qcoideal import barcheck, qsp, scalars
from qcoideal.braid import BraidOperator, apply_braid
from qcoideal.cartan import CartanDatum, cartan_datum, validate_admissible
from qcoideal.scalars import I_UNIT, ONE, Scalar, qbinom_eps, qfact, qint
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


def check_commute_cold():
    """F_2 E_1 = E_1 F_2, with no other entry of the commutation table
    filled before."""
    return _f2_e1(warm=False)


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


def check_serre_ascending():
    """F_21(F_2, B_1) = sum_n (-1)^n [3 choose n]_q F_2^{3-n} B_1 F_2^n on B2,
    X = {2}: x = F_2 is shorter than B_1, so the q-commutator factors run
    up from k = 0, an order that the checks on E_1 and E_2 never take."""
    d = CartanDatum(cartan_datum("B", 2).A)
    params = qsp.QSPParameters(validate_admissible(d, {2}, {1: 1, 2: 2}), {1: Q})
    x, y = qsp.b_generator(params, 2), qsp.b_generator(params, 1)
    want = Element.zero(d)
    for n in range(4):
        want = want + (x ** (3 - n) * y * x ** n).scale(qbinom_eps(3, n) * Scalar.gaussian((-1) ** n))
    return len(x.terms) < len(y.terms) and equals(serre_polynomial(d, 2, 1, x, y), want)


def check_q_commutator():
    """E_1 E_2 - q^{-1} E_2 E_1 is not zero: its coordinate at the good word
    21 vanishes, so only the good word 12 tells it from zero."""
    d = _a2()
    E1, E2 = Element.E(d, 1), Element.E(d, 2)
    return not is_zero(E1 * E2 - (E2 * E1).scale(Q ** -1))


def check_braid_inverse_warm():
    """T'_{1,-1}(T''_{1,1}(x)) = x for x = E_1 E_2, after T''_{1,-1} has
    memoised the images of the letters of x."""
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
    "commute-cold": check_commute_cold,
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
    "serre-ascending": check_serre_ascending,
    "fourth-root": check_fourth_root,
    "split-rule": check_split_rule,
}


# name -> (the check it fails, [(file, old text, new text)])
MUTANTS = {
    # 1 / (q_i - q_i^{-1}) with the wrong sign
    "negate_ef_inverse": ("ef-commutator", [
        ("uqg.py", "s = (Scalar.v_pow(2 * e) - Scalar.v_pow(-2 * e)).inverse()",
         "s = -(Scalar.v_pow(2 * e) - Scalar.v_pow(-2 * e)).inverse()"),
    ]),
    # K_{k2} picks up 2 more per letter moving left past a nonempty F-word
    "shift_k_past_f": ("k-past-f", [
        ("uqg.py", "x += sum(map(mul, r2, word_weight(datum, f)))",
         "x += sum(map(mul, r2, word_weight(datum, f))) + 2 * len(f)"),
    ]),
    # the commutation table is keyed on the E-word alone, so the expansion
    # stored for one F-word answers for another
    "key_table_on_e": ("commute-warm", [
        ("uqg.py", "key = (f, e)", "key = e"),
    ]),
    # each row reaches its base unsigned, so -v^s base reads +v^s base
    "drop_base_sign": ("ef-commutator", [
        ("uqg.py", "(e1, k, f1, n + negs.index(b) if neg else b, s)", "(e1, k, f1, b, s)"),
    ]),
    # every letter deletion of the zero walk costs v^0
    "drop_deletion_qpower": ("quantum-serre", [
        ("uqg.py", "out.append((x, word[:p] + word[p + 1:]))", "out.append((0, word[:p] + word[p + 1:]))"),
    ]),
    # the good word 12 of weight (1, 1) is missing
    "drop_good_word": ("q-commutator", [
        ("uqg.py", "cache[nu] = frozenset(out)",
         "cache[nu] = frozenset(out) - {(1, 2)} if nu == (1, 1) else frozenset(out)"),
    ]),
    # the braid letter-image memo is keyed without the sign e, so an image
    # memoised for one sign answers for the other
    "drop_braid_sign": ("braid-inverse-warm", [
        ("braid.py", "key = (op.i, op.e, op.double_prime, kind, j)",
         "key = (op.i, op.double_prime, kind, j)"),
    ]),
    # (a / b)(c / d) tries a against the Phi_k of d only, never c against b
    "skip_c_against_b": ("cross-cancellation", [
        ("scalars.py", "c, b_left, split = _strip(other.num, b.phi)",
         "c, b_left, split = other.num, b.phi, False"),
    ]),
    # a sum counts the groups over one denominator, not their addends, when
    # it decides which Phi_k two addends reach
    "sum_groups_as_reduced": ("sum-over-one-denominator", [
        ("scalars.py", "reach[k] = reach.get(k, 0) + n", "reach[k] = reach.get(k, 0) + 1"),
    ]),
    # the coproduct splits of E-words (then of F-words) carry q-powers of
    # the wrong sign
    "flip_e_split_sign": ("coproduct-e-side", [
        ("uqg.py", "x = sign * 2 * sum(map(mul, row, wt))", "x = -2 * sum(map(mul, row, wt))"),
    ]),
    "flip_f_split_sign": ("coproduct-f-side", [
        ("uqg.py", "x = sign * 2 * sum(map(mul, row, wt))", "x = 2 * sum(map(mul, row, wt))"),
    ]),
    # the coproduct of a monomial with no F-letters leaves K_k, not
    # K_{k+wt S}, on its first factor; that of a monomial with no E-letters
    # puts K_{k-wt f}, not K_{k-wt(f-T)}, on its second
    "unshift_f_free_first_k": ("coproduct-e-side", [
        ("uqg.py", "(((rest, tuple(map(add, k, wt)), ()), (moved, k, ())), pe)",
         "(((rest, k, ()), (moved, k, ())), pe)"),
    ]),
    "unshift_e_free_second_k": ("coproduct-f-side", [
        ("uqg.py", "((((), k, stay), ((), tuple(map(add, k2, wt)), moved)), pf)",
         "((((), k, stay), ((), k2, moved)), pf)"),
    ]),
    # the torus part K_k gives the letters a left skew derivation deletes
    # no shift -2 (alpha_i, k)
    "drop_skew_torus_shift": ("skew-ir-torus", [
        ("uqg.py", "shift = -2 * sum(map(mul, row, k))", "shift = 0"),
    ]),
    # the zero walk reads its coefficients without their imaginary parts
    "drop_imaginary_parts": ("gaussian-coefficient", [
        ("scalars.py", "for j, x in ((0, c.re), (1, c.im)) if x}", "for j, x in ((0, c.re),) if x}"),
    ]),
    # each coefficient of the zero walk is cleared by its own denominator,
    # not by the one common to them all
    "clear_each_by_its_own": ("common-scale", [
        ("scalars.py", "cofactor = dict(zip(dens, _over_lcm(list(dens.values()))[2])) if len(dens) > 1 else None",
         "cofactor = None"),
    ]),
    # the walk packs its polynomials in digits of one bit, too narrow to
    # hold their coefficients apart
    "narrow_pack_width": ("mixed-sign-coefficient", [
        ("uqg.py", "b = (l1 * paths).bit_length() + 2", "b = 1"),
    ]),
    # a deferred key whose addends cancel is kept with coefficient 0
    "keep_vanishing_sums": ("x-minus-x", [
        ("uqg.py", "zero.append(key)", "pass"),
    ]),
    # the memo of trial divisions is keyed on the numerator alone
    "strip_memo_without_vector": ("strip-memo", [
        ("scalars.py", "key = list(key)", "key = []"),
    ]),
    # the y x side of x y - v^s y x loses v^s, or is added instead of
    # subtracted
    "drop_commutator_shift": ("serre-g2", [
        ("uqg.py", "_straighten(datum, out, b, a, -c, s)", "_straighten(datum, out, b, a, -c)"),
    ]),
    "add_commutator_swap": ("serre-g2", [
        ("uqg.py", "_straighten(datum, out, b, a, -c, s)", "_straighten(datum, out, b, a, c, s)"),
    ]),
    # the ascending order, taken where x is the shorter factor, loses its
    # first factor k = 0
    "drop_ascending_factor": ("serre-ascending", [
        ("uqg.py", "else range(m):", "else range(1, m):"),
    ]),
    # i^2 = +1 among the fourth roots of unity
    "square_i_to_one": ("fourth-root", [
        ("scalars.py", "return (I_UNIT, Scalar.gaussian(-1), -I_UNIT, ONE)[(n - 1) % 4]",
         "return (I_UNIT, ONE, -I_UNIT, ONE)[(n - 1) % 4]"),
    ]),
    # the split-node rule without the bar: c_tau(i) = v^{2x} c_i
    "drop_split_bar": ("split-rule", [
        ("barcheck.py", "Scalar.v_pow(2 * pair.pairing_theta_2rho(i)) * ci.bar()",
         "Scalar.v_pow(2 * pair.pairing_theta_2rho(i)) * ci"),
    ]),
}

PACKAGE = Path(qcoideal.__file__).resolve().parent


def plant(root, edits):
    """Copy the engine this process imports, and this module, into the
    directory `root`, apply the edits (file, old text, new text) to the copy
    in turn, and return root.  An old text that does not occur exactly
    once in its file is a ValueError."""
    copy = Path(root) / "qcoideal"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(__file__, root)
    for name, old, new in edits:
        path = copy / name
        text = path.read_text()
        at = text.find(old)
        if at < 0 or text.find(old, at + 1) >= 0:
            raise ValueError(f"{name}: {old!r} does not occur exactly once")
        path.write_text(text[:at] + new + text[at + len(old):])
    return root


def run_checks(root, names, path=()):
    """The exit status of the checks `names` run in a fresh interpreter on
    the copy in `root`: 0 when all hold, 1 when one fails.  Any other
    status, or any output on stderr (a traceback also exits 1), is a
    RuntimeError that shows it, so a fault of the harness is never read as
    a failing check.  The child's path is the copy, then the directories
    `path`, then the standard library: `-S` leaves out site-packages, where
    an installed qcoideal may lie."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [root, *path])))
    child = subprocess.run([sys.executable, "-S", "-m", "mutation_checks", *names],
                           cwd=root, env=env, capture_output=True, text=True)
    if child.returncode not in (0, 1) or child.stderr:
        raise RuntimeError(f"the checks {names} exited {child.returncode}:\n{child.stderr}")
    return child.returncode


def main(names):
    """0 when the checks `names` hold on the engine beside this file, 1
    when one fails."""
    here = Path(__file__).resolve().parent
    engine = Path(qcoideal.__file__).resolve()
    if engine.parent.parent != here:
        raise RuntimeError(f"the engine {engine} lies outside the copy {here}")
    return 0 if all(CHECKS[name]() for name in names) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
