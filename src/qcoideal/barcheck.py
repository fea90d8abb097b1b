"""Bar-involution analysis for quantum symmetric pair coideal subalgebras.

Extracts the sign nu_i (the sigma-tau invariance defect of the first-order
braid-twisted generator component), the q-power ell_i, verifies how the
bar involution of the ambient algebra acts on the Z elements, decides for
concrete parameter families whether the intrinsic bar involution of the
coideal subalgebra exists, and provides the canonical parameter choice and
the equivalence relations on parameter families.  Both deciders refuse a
pair outside the proved scope of the presentation, the one rule of
`qsp.scope_violation`, and read the case split of the parameter sets off
the pair (`theta_orthogonal`, `isolated`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cartan import AdmissiblePair
from .grammar import scalar_to_text
from .qsp import (
    MembershipError,
    QSPContext,
    QSPParameters,
    context_for,
    in_set_S,
    scope_violation,
)
from .scalars import ONE, Scalar, is_bar_fixed
from .uqg import Element, bar_element, equals, is_zero, sigma, skew_r


class EngineInconsistencyError(RuntimeError):
    """A computation contradicted a proved structural fact; engine bug."""


class OutOfScopeError(ValueError):
    """The Cartan entries leave the proved range of the presentation."""


def tau_relabel(pair: AdmissiblePair, a: Element) -> Element:
    """Algebra automorphism induced by the diagram involution: letter renaming."""
    datum = a.datum
    out = {}
    for (e, k, f), c in a.terms.items():
        ne = tuple(pair.tau[i] for i in e)
        nf = tuple(pair.tau[j] for j in f)
        nk = [0] * datum.n
        for p, x in enumerate(k):
            if x:
                nk[datum.pos(pair.tau[datum.labels[p]])] += x
        out[(ne, tuple(nk), nf)] = c
    return Element(datum, out)


def nu_sign(ctx: QSPContext, i) -> int:
    """Sign comparing sigma . tau of the braid-twisted first-order component
    against the component itself; +1 or -1, anything else is an engine bug."""
    if i in ctx.nu:
        return ctx.nu[i]
    if i in ctx.pair.X:
        raise ValueError("nu is defined for nodes outside X")
    P = skew_r(i, ctx.twisted(i))
    Q = sigma(tau_relabel(ctx.pair, P))
    if is_zero(Q - P):
        val = 1
    elif is_zero(Q + P):
        val = -1
    else:
        raise EngineInconsistencyError(
            f"sigma-tau image of the twisted component at node {i} is not +-1 times itself"
        )
    ctx.nu[i] = val
    return val


def check_ocZ(ctx: QSPContext, i) -> bool:
    """bar(Z_i) must equal nu_i * ell_i * Z_{tau(i)}; False flags an engine bug."""
    nu = nu_sign(ctx, i)
    rhs = ctx.z(ctx.pair.tau[i]).scale(ctx.ell(i))
    if nu < 0:
        rhs = -rhs
    return equals(bar_element(ctx.z(i)), rhs)


@dataclass
class BarReport:
    """Outcome of the bar-involution existence decision for one parameter set."""

    nu: dict
    ell: dict
    ocZ: dict
    verdict: str
    failing_nodes: list = field(default_factory=list)
    skipped_nodes: list = field(default_factory=list)
    rescaled_nodes: list = field(default_factory=list)

    @property
    def exists(self) -> bool:
        return self.verdict == "exists"

    def to_json(self):
        return {
            "nu": {str(i): v for i, v in sorted(self.nu.items())},
            "ell": {str(i): scalar_to_text(v) for i, v in sorted(self.ell.items())},
            "ocZ": {str(i): v for i, v in sorted(self.ocZ.items())},
            "verdict": self.verdict,
            "failing_nodes": sorted(self.failing_nodes),
            "skipped_nodes": sorted(self.skipped_nodes),
            "rescaled_nodes": sorted(self.rescaled_nodes),
        }


def check_presentation_scope(pair: AdmissiblePair):
    """Raise OutOfScopeError unless `qsp.scope_violation` is silent for every
    tau-fixed free node i, towards X first and then towards the free nodes."""
    for i in pair.free:
        if pair.tau[i] != i:
            continue
        for j in (*sorted(pair.X), *pair.free):
            violation = scope_violation(pair, i, j)
            if violation:
                raise OutOfScopeError(f"{violation} leaves the proved scope")


def bar_exists(params: QSPParameters) -> BarReport:
    """Decide existence of the intrinsic bar involution for these parameters.

    A node is checked when it is split under tau or sees any other node of
    the Cartan matrix; tau-fixed isolated rank-one components
    (`pair.isolated`) are skipped (their parameter never matters).
    """
    pair = params.pair
    datum = params.datum
    check_presentation_scope(pair)
    ctx = context_for(pair)
    nu = {}
    ellv = {}
    ocz = {}
    failing = []
    skipped = []
    for i in pair.free:
        nu[i] = nu_sign(ctx, i)
        ellv[i] = ctx.ell(i)
    for i in pair.free:
        if i in pair.isolated:
            skipped.append(i)
            continue
        ti = pair.tau[i]
        alpha_i = datum.simple_root(i)
        alpha_ti = datum.simple_root(ti)
        lhs = bar_element(ctx.z(i)).scale(params.c[i].bar())
        rhs = ctx.z(ti).scale(
            params.c[ti] * Scalar.v_pow(2 * datum.bilinear(alpha_i, alpha_ti))
        )
        ok = equals(lhs, rhs)
        ocz[i] = ok
        if not ok:
            failing.append(i)
    verdict = "exists" if not failing else "fails"
    return BarReport(nu, ellv, ocz, verdict, failing, skipped)


def corollary_conditions(params: QSPParameters) -> BarReport:
    """Direct arithmetic test of the parameter conditions equivalent to the
    bar involution existing (with the sign-rescaling convention applied on
    nodes where nu = -1).  Mirrors `bar_exists` but touches only scalars."""
    pair = params.pair
    check_presentation_scope(pair)
    ctx = context_for(pair)
    nu = {i: nu_sign(ctx, i) for i in pair.free}
    ellv = {i: ctx.ell(i) for i in pair.free}
    qdiff = Scalar.v_pow(2) - Scalar.v_pow(-2)
    c = {}
    rescaled = []
    for i in pair.free:
        if nu[i] < 0:
            c[i] = params.c[i] / qdiff
            rescaled.append(i)
        else:
            c[i] = params.c[i]
    results = {}
    failing = []
    skipped = []
    for i in pair.free:
        if i in pair.isolated:
            skipped.append(i)
            continue
        ti = pair.tau[i]
        exponent = pair.pairing_theta_2rho(i)
        if ti == i or i in pair.theta_orthogonal:
            lam = c[i] * Scalar.v_pow(-exponent)
            ok = (c[i] == c[ti]) and bool(lam) and is_bar_fixed(lam)
        else:
            ok = c[ti] == Scalar.v_pow(2 * exponent) * c[i].bar()
        results[i] = ok
        if not ok:
            failing.append(i)
    verdict = "exists" if not failing else "fails"
    return BarReport(nu, ellv, results, verdict, failing, skipped, rescaled)


# ---------------------------------------------------------------------------
# Canonical parameters and equivalence.
# ---------------------------------------------------------------------------

def canonical_params(pair: AdmissiblePair) -> dict:
    """The distinguished parameter family in each equivalence class:
    d_i = v^{(alpha_i, Theta(alpha_i) - 2 rho_X)} on every free node.

    Tau-fixed or theta-orthogonal nodes must take this pinned q-power, and
    on a split pair (i, tau(i)) it meets d_tau(i) = v^{2x} bar(d_i): tau is
    an isometry that fixes X, commutes with w_X and fixes rho_X, so the
    exponent x is the same at i and tau(i).
    """
    d = {i: Scalar.v_pow(pair.pairing_theta_2rho(i)) for i in pair.free}
    violations = in_set_D(pair, d)
    if violations:
        raise EngineInconsistencyError(
            "canonical parameters left their defining set: " + "; ".join(violations)
        )
    return d


def in_set_D(pair: AdmissiblePair, d: dict):
    """Violations of the canonical parameter-set conditions for d."""
    out = []
    for i in pair.free:
        if i not in d or not d[i]:
            out.append(f"missing or zero d_{i}")
    if out:
        return out
    for i in pair.free:
        ti = pair.tau[i]
        exponent = pair.pairing_theta_2rho(i)
        if ti == i or i in pair.theta_orthogonal:
            if d[i] != Scalar.v_pow(exponent):
                out.append(f"d_{i} must be the pinned q-power")
        else:
            if d[ti] != Scalar.v_pow(2 * exponent) * d[i].bar():
                out.append(f"d_{ti} must be q-power times bar(d_{i})")
    return out


def equiv_D(pair: AdmissiblePair, d: dict, d2: dict) -> bool:
    """Equivalence of canonical-set parameter families: split-node ratios
    must be bar-fixed."""
    for fam in (d, d2):
        violations = in_set_D(pair, fam)
        if violations:
            raise MembershipError(violations)
    return all(
        is_bar_fixed(d2[i] / d[i]) for i in pair.free if pair.tau[i] != i
    )


def equiv_S(pair: AdmissiblePair, s: dict, s2: dict) -> bool:
    """Equivalence of s families: agreement up to sign on the relevant nodes."""
    for fam in (s, s2):
        violations = in_set_S(pair, fam)
        if violations:
            raise MembershipError(violations)
    for i in pair.I_ns:
        a = s.get(i, None)
        b = s2.get(i, None)
        a = a if a is not None else Scalar.from_int(0)
        b = b if b is not None else Scalar.from_int(0)
        if a != b and a != -b:
            return False
    return True


def ad_x(xmap: dict, a: Element) -> Element:
    """Hopf automorphism scaling each Q-homogeneous component by x(beta),
    where x is the lattice character with x(alpha_i) = xmap[i]."""
    datum = a.datum
    for i in datum.labels:
        if i not in xmap or not xmap[i]:
            raise ValueError("ad_x needs a nonzero value on every simple root")
    out = {}
    for key, c in a.terms.items():
        deg = a.degree_of_key(key)
        factor = ONE
        for p, exp in enumerate(deg):
            if exp:
                factor = factor * xmap[datum.labels[p]] ** exp
        cc = c * factor
        if cc:
            out[key] = cc
    return Element(datum, out)
