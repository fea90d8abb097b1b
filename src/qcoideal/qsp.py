"""Quantum symmetric pair coideal subalgebras: twisted generators and the
inhomogeneous Serre right-hand sides.

For an admissible pair (X, tau) and parameter families c, s this module
builds the coideal generators B_i, the distinguished first-order coproduct
components Z_i and W_ij, the closed formulas for the Serre right-hand side
C_ij(c) in the proved cases, and a projection-based oracle for C_ij(c)
that works for arbitrary Cartan entries.  `serre_projection` builds
Y = F_ij(B_i, B_j) once together with its projection cell; the oracle is
Y minus the cell, so the oracle's defect F_ij(B_i, B_j) - C_ij(c) is the
cell itself, which the engine must certify to be zero.
"""

from __future__ import annotations

from .braid import apply_word
from .cartan import AdmissiblePair, rho_check_pairing, vec_sub
from .scalars import ONE, ZERO, Scalar, fourth_root_power, qint, qshifted_factorial
from .uqg import (
    Element,
    _ef_inverse,
    coproduct_graded,
    is_zero,
    q_commutator,
    serre_polynomial,
    skew_ir,
    skew_r,
    word_weight,
)


class NoClosedFormulaError(ValueError):
    """No closed Serre right-hand side is in proved scope for this case."""


class MembershipError(ValueError):
    """Parameter family violates its defining set; carries the violations."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def s_value(pair: AdmissiblePair, j) -> Scalar:
    """Fourth root of unity attached to node j by the involution data."""
    if j in pair.X or pair.tau[j] == j:
        return ONE
    n = rho_check_pairing(pair.datum, pair.X, pair.datum.simple_root(j)) * 2
    if getattr(n, "denominator", 1) != 1:
        raise RuntimeError("internal: coroot half-sum pairing is not integral")
    n = int(n)
    if pair.tau[j] > j:
        return fourth_root_power(n)
    return fourth_root_power(-n)


def in_set_C(pair: AdmissiblePair, c: dict):
    """Violations of the defining conditions of the parameter set for c."""
    out = []
    for i in pair.free:
        if i not in c:
            out.append(f"missing parameter c_{i}")
    if out:
        return out
    for i in pair.free:
        if not c[i]:
            out.append(f"c_{i} must be nonzero")
    for i in pair.theta_orthogonal:
        ti = pair.tau[i]
        if c[i] != c[ti]:
            out.append(f"c_{i} must equal c_{ti} (orthogonal split pair)")
    return out


def in_set_S(pair: AdmissiblePair, s: dict):
    """Violations for s: nonzero only on I_ns nodes whose I_ns neighbours
    pair into even Cartan entries (the corrected column condition)."""
    out = []
    datum = pair.datum
    ns = set(pair.I_ns)
    for i in pair.free:
        si = s.get(i, ZERO)
        if not si:
            continue
        if i not in ns:
            out.append(f"s_{i} must vanish: node {i} is not tau-fixed X-orthogonal")
            continue
        for j in sorted(ns - {i}):
            aji = datum.a(j, i)
            if aji > 0 or aji % 2:
                out.append(
                    f"s_{i} must vanish: a_{j}{i} = {aji} is not in -2N_0"
                )
    return out


class QSPParameters:
    """Admissible pair plus validated parameter families c and s.

    The parameters own the generators B_i built from them (`b_generator`),
    so each B_i is built once and lives as long as its c and s.
    """

    def __init__(self, pair: AdmissiblePair, c: dict, s: dict = None):
        s = s or {}
        for i in (*c, *s):
            pair.datum.pos(i)  # an unknown label is an input error
        self.pair = pair
        self.c = {i: c[i] for i in pair.free if i in c}
        self.s = {i: s.get(i, ZERO) for i in pair.free}
        self.b = {}
        violations = in_set_C(pair, self.c) + in_set_S(pair, self.s)
        if violations:
            raise MembershipError(violations)

    @property
    def datum(self):
        return self.pair.datum


class QSPContext:
    """Cached per-pair data: Z_i and the nu signs of `barcheck.nu_sign`.

    The pair owns its context (`context_for`), so these caches live exactly
    as long as the pair.  The twists T_{w_X}(E_j) depend on the datum and X
    alone, so `twisted` memoises them in the datum's `caches["twist"]`, and
    theta_q(F_i K_i) is one scale of a twist.
    """

    def __init__(self, pair: AdmissiblePair):
        self.pair = pair
        self.datum = pair.datum
        self._z = {}
        self.nu = {}

    def twisted(self, j) -> Element:
        """T_{w_X}(E_j), the braid twist every Z_i, theta_q and nu_i is built
        from; pairs of one datum with the same X share it."""
        cache = self.datum.caches["twist"]
        key = (self.pair.wX_word, j)
        v = cache.get(key)
        if v is None:
            v = apply_word(self.pair.wX_word, Element.E(self.datum, j))
            cache[key] = v
        return v

    def theta_fk(self, i) -> Element:
        """Image of F_i K_i under the quantum involution: -s(tau(i)) T_{w_X}(E_{tau(i)})."""
        if i in self.pair.X:
            raise ValueError("theta_fk is defined for nodes outside X")
        ti = self.pair.tau[i]
        return self.twisted(ti).scale(-s_value(self.pair, ti))

    def z(self, i) -> Element:
        v = self._z.get(i)
        if v is None:
            v = self._compute_z(i)
            self._z[i] = v
        return v

    def _compute_z(self, i) -> Element:
        datum = self.datum
        ti = self.pair.tau[i]
        core = skew_r(ti, self.theta_fk(i))
        kvec = vec_sub(datum.simple_root(ti), datum.simple_root(i))
        v = core * Element.K(datum, kvec)
        # graded home: E-part of weight w_X(alpha_tau(i)) - alpha_tau(i), fixed K
        want = vec_sub(
            datum.weyl_action(self.pair.wX_word, datum.simple_root(ti)),
            datum.simple_root(ti),
        )
        for (e, k, f) in v.terms:
            if f or k != tuple(kvec) or word_weight(datum, e) != want:
                raise RuntimeError("internal: Z element left its graded home")
        return v

    def ell(self, i) -> Scalar:
        """q-power q^{(alpha_i, alpha_i - w_X(alpha_i) - 2 rho_X)}."""
        datum = self.datum
        a = datum.simple_root(i)
        w = datum.weyl_action(self.pair.wX_word, a)
        vec = tuple(x - y - z for x, y, z in zip(a, w, self.pair.two_rho_X))
        return Scalar.v_pow(2 * datum.bilinear(a, vec))


def w_element(ctx: QSPContext, i, j) -> Element:
    """Second-order coproduct component, from the double skew derivation."""
    datum = ctx.datum
    if j not in ctx.pair.X:
        raise ValueError("w_element requires j inside X")
    ti = ctx.pair.tau[i]
    num = skew_r(j, skew_r(ti, ctx.theta_fk(i)))
    kvec = vec_sub(datum.simple_root(ti), datum.simple_root(i))
    num = num * Element.K(datum, kvec)
    pairing = datum.bilinear(datum.simple_root(i), datum.simple_root(j))
    if pairing == 0:
        if is_zero(num):
            return Element.zero(datum)
        raise RuntimeError("internal: w_element undefined: orthogonal nodes with nonvanishing numerator")
    denom = ONE - Scalar.v_pow(4 * pairing)
    return num.scale(denom.inverse())


def b_generator(params: QSPParameters, i) -> Element:
    """B_i = F_i + c_i theta_q(F_i K_i) K_i^{-1} + s_i K_i^{-1}; F_i inside X.
    Memoised in `params.b`."""
    out = params.b.get(i)
    if out is not None:
        return out
    datum = params.datum
    out = Element.F(datum, i)
    if i not in params.pair.X:
        ctx = context_for(params.pair)
        kinv = Element.K_i(datum, i, -1)
        out = out + (ctx.theta_fk(i) * kinv).scale(params.c[i])
        si = params.s[i]
        if si:
            out = out + kinv.scale(si)
    params.b[i] = out
    return out


def context_for(pair: AdmissiblePair) -> QSPContext:
    """The pair's context, made on first use; the pair owns it, so the
    context lives exactly as long as the pair."""
    if pair.qsp_context is None:
        pair.qsp_context = QSPContext(pair)
    return pair.qsp_context


# ---------------------------------------------------------------------------
# Closed formulas for the Serre right-hand side.
# ---------------------------------------------------------------------------

def _qi(datum, i, n=1) -> Scalar:
    return Scalar.v_pow(2 * n * datum.epsilon(i))


def scope_violation(pair: AdmissiblePair, i, j):
    """The proved scope of the presentation for a tau-fixed free node i:
    a_ij >= -2 towards j in X and a_ij >= -3 otherwise.  Returns the entry
    that leaves it, as text, or None."""
    aij = pair.datum.a(i, j)
    if j in pair.X:
        return f"a_{i}{j} = {aij} with j in X" if aij < -2 else None
    return f"a_{i}{j} = {aij}" if aij < -3 else None


def c_closed(params: QSPParameters, i, j) -> Element:
    """Closed-form C_ij(c) in the proved cases.

    Split nodes (tau(i) = j != i) are covered for every Cartan entry; a
    tau-fixed i must keep `scope_violation` silent.  Raises
    NoClosedFormulaError outside scope.
    """
    datum = params.datum
    pair = params.pair
    if i == j:
        raise ValueError("Serre relations require i != j")
    if i in pair.X and j in pair.X:
        return Element.zero(datum)
    if i in pair.X:
        raise NoClosedFormulaError(
            f"no closed formula in scope for i = {i} inside X"
        )
    ctx = context_for(params.pair)
    ti = pair.tau[i]
    eps = datum.epsilon(i)
    if ti != i:
        if j != ti:
            return Element.zero(datum)
        m = 1 - datum.a(i, j)
        Bi = b_generator(params, i)
        Bim = Bi ** (m - 1)
        zi = ctx.z(i).scale(params.c[i])
        zt = ctx.z(ti).scale(params.c[ti])
        term = (Bim * zi).scale(_qi(datum, i, -m) * qshifted_factorial(Scalar.v_pow(4 * eps), m))
        term = term + (Bim * zt).scale(_qi(datum, i) * qshifted_factorial(Scalar.v_pow(-4 * eps), m))
        pref = -(_ef_inverse(datum, i) ** 2)
        return term.scale(pref)
    aij = datum.a(i, j)
    if aij == 0:
        return Element.zero(datum)
    violation = scope_violation(pair, i, j)
    if violation:
        raise NoClosedFormulaError(
            f"no closed formula in scope: {violation} (general case open)"
        )
    Bi = b_generator(params, i)
    Bj = b_generator(params, j)
    zi = ctx.z(i).scale(params.c[i])
    if j not in pair.X:
        if aij == -1:
            return (zi * Bj).scale(_qi(datum, i))
        if aij == -2:
            two = qint(2, eps)
            return (zi * q_commutator(Bi, Bj, 0)).scale(two * two * _qi(datum, i))
        # aij == -3; the signs of the two Z-linear coefficients are pinned by
        # the projection oracle (see tests), not taken on trust
        three = qint(3, eps)
        two = qint(2, eps)
        four = qint(4, eps)
        t1 = ((Bi * Bi * Bj + Bj * Bi * Bi) * zi).scale(
            (three * three + ONE) * _qi(datum, i)
        )
        t2 = ((Bi * Bj * Bi) * zi).scale(
            -(two * (two * four + _qi(datum, i, 1) ** 2 + _qi(datum, i, -1) ** 2)) * _qi(datum, i)
        )
        t3 = (Bj * zi * zi).scale(-(three * three) * _qi(datum, i) ** 2)
        return t1 + t2 + t3
    # j in X: unified formulas with skew derivatives of Z_i
    epj = datum.epsilon(j)
    rz = skew_r(j, ctx.z(i)) * Element.K_i(datum, j)
    irz = skew_ir(j, ctx.z(i)) * Element.K_i(datum, j, -1)
    denom = _ef_inverse(datum, i) * _ef_inverse(datum, j)
    if aij == -1:
        out = (Bj * zi).scale(_qi(datum, i))
        out = out + (rz.scale(_qi(datum, i) ** 2) + irz.scale(Scalar.v_pow(4 * epj) * _qi(datum, i, -1) ** 2)).scale(denom).scale(params.c[i])
        return out
    # aij == -2, since scope_violation refuses every other entry towards X
    two = qint(2, eps)
    out = (q_commutator(Bi, Bj, 0) * zi).scale(_qi(datum, i) * two * two)
    jinv = _ef_inverse(datum, j)
    out = out + (Bi * rz).scale(-(_qi(datum, i) ** 4) * two * jinv).scale(params.c[i])
    out = out + (Bi * irz).scale(Scalar.v_pow(4 * epj) * (_qi(datum, i, -1) ** 6) * two * jinv).scale(params.c[i])
    return out


def c_closed_torus(params: QSPParameters, i, j) -> Element:
    """Alternative closed form for tau-fixed i and j in X, written with the
    commutator of Z_i against B_j and the W element."""
    datum = params.datum
    pair = params.pair
    if i in pair.X or pair.tau[i] != i or j not in pair.X:
        raise NoClosedFormulaError(
            "torus-commutator closed form needs tau-fixed i outside X and j in X"
        )
    ctx = context_for(params.pair)
    aij = datum.a(i, j)
    eps = datum.epsilon(i)
    Bj = b_generator(params, j)
    zi = ctx.z(i).scale(params.c[i])
    wij = w_element(ctx, i, j).scale(params.c[i]) * Element.K_i(datum, j)
    qi = _qi(datum, i)
    if aij == 0:
        return Element.zero(datum)
    if aij == -1:
        out = q_commutator(zi, Bj, 4 * eps).scale(-_ef_inverse(datum, i))
        out = out + wij.scale((qi + _qi(datum, i, -1)) * _ef_inverse(datum, j))
        return out
    if aij == -2:
        Bi = b_generator(params, i)
        three = qint(3, eps)
        inner = (Bi * Bj).scale(three) - (Bj * Bi).scale(qi ** 2 + Scalar.gaussian(2))
        out = (inner * zi).scale(qi ** 2)
        inner2 = (Bi * Bj).scale(Scalar.gaussian(2) + _qi(datum, i, -1) ** 2) - (Bj * Bi).scale(three)
        out = out - zi * inner2
        out = out.scale(_ef_inverse(datum, i))
        coeff = (
            (qi - _qi(datum, i, -1))
            * _ef_inverse(datum, j)
            * (qi + _qi(datum, i, -1)) ** 2
            * three
        )
        out = out - (Bi * wij).scale(coeff)
        return out
    raise NoClosedFormulaError(f"torus-commutator form covers a_ij in {{0,-1,-2}}, got {aij}")


def serre_projection(params: QSPParameters, i, j):
    """(Y, cell): Y = F_ij(B_i, B_j) and its projection cell.

    The cell is the part of the coproduct of Y whose second factor is
    exactly K_{-lambda_ij}, with the counit applied to that factor;
    Y - cell is the projection formula for C_ij(c), so the cell is the
    oracle's Serre defect.  `serre_polynomial` refuses i == j.
    """
    datum = params.datum
    Bi = b_generator(params, i)
    Bj = b_generator(params, j)
    Y = serre_polynomial(datum, i, j, Bi, Bj)
    m = 1 - datum.a(i, j)
    lam = tuple(
        m * a + b
        for a, b in zip(datum.simple_root(i), datum.simple_root(j))
    )
    unit = ((), tuple(-x for x in lam), ())
    graded = coproduct_graded(Y, datum.zero_vector())
    cell = {m1: c for (m1, m2), c in graded.terms.items() if m2 == unit}
    return Y, Element(datum, cell)


def c_oracle(params: QSPParameters, i, j) -> Element:
    """Projection oracle for C_ij(c), valid for arbitrary Cartan entries:
    Y = F_ij(B_i, B_j) minus its projection cell (see `serre_projection`)."""
    Y, cell = serre_projection(params, i, j)
    return Y - cell
