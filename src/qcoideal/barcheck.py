"""Bar-involution analysis for quantum symmetric pair coideal subalgebras.

Extracts the sign nu_i (the sigma-tau invariance defect of the first-order
braid-twisted generator component), the q-power ell_i, verifies how the
bar involution of the ambient algebra acts on the Z elements, decides for
concrete parameter families whether the intrinsic bar involution of the
coideal subalgebra exists, and provides the canonical parameter choice and
the equivalence relations on parameter families.  The two deciders,
`bar_exists` (the Z_i identity) and `corollary_conditions` (scalar
conditions on c), build their `BarReport` through one path, `_decide`: it
refuses a pair outside the proved scope of the presentation, the one rule
of `qsp.scope_violation`, reads nu and ell on every free node, skips the
`isolated` nodes and collects the failing ones, so each decider supplies
only its per-node test.  The pinned-node test (`_pinned`, tau-fixed or
`theta_orthogonal`) and the split-node rule (`_split_rule`) are written
once, for `corollary_conditions` and `in_set_D` alike.
"""

from __future__ import annotations

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
from .scalars import ONE, ZERO, Scalar, is_bar_fixed
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


class BarReport:
    """Outcome of the bar-involution existence decision for one parameter set."""

    def __init__(self, nu: dict, ell: dict, ocZ: dict, verdict: str,
                 failing_nodes=None, skipped_nodes=None, rescaled_nodes=None):
        self.nu = nu
        self.ell = ell
        self.ocZ = ocZ
        self.verdict = verdict
        self.failing_nodes = [] if failing_nodes is None else failing_nodes
        self.skipped_nodes = [] if skipped_nodes is None else skipped_nodes
        self.rescaled_nodes = [] if rescaled_nodes is None else rescaled_nodes

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


def _decide(params: QSPParameters, node_test) -> BarReport:
    """The report path of both deciders: the scope check, nu and ell on every
    free node in node order (`nu_sign` leaves each sign in `ctx.nu`), then
    `node_test(ctx, i)` on every free node in node order, skipping the
    tau-fixed isolated rank-one components (`pair.isolated`), whose
    parameter never matters."""
    pair = params.pair
    check_presentation_scope(pair)
    ctx = context_for(pair)
    nu = {i: nu_sign(ctx, i) for i in pair.free}
    ellv = {i: ctx.ell(i) for i in pair.free}
    skipped = [i for i in pair.free if i in pair.isolated]
    ok = {i: node_test(ctx, i) for i in pair.free if i not in pair.isolated}
    failing = [i for i, holds in ok.items() if not holds]
    return BarReport(nu, ellv, ok, "fails" if failing else "exists", failing, skipped)


def _pinned(pair: AdmissiblePair, i) -> bool:
    """A pinned node: tau(i) = i, or i is theta-orthogonal."""
    return pair.tau[i] == i or i in pair.theta_orthogonal


def _split_rule(pair: AdmissiblePair, i, ci: Scalar, cti: Scalar) -> bool:
    """The split-node rule c_tau(i) = v^{2x} bar(c_i), for
    x = (alpha_i, Theta(alpha_i) - 2 rho_X)."""
    return cti == Scalar.v_pow(2 * pair.pairing_theta_2rho(i)) * ci.bar()


def bar_exists(params: QSPParameters) -> BarReport:
    """Decide existence of the intrinsic bar involution for these parameters:
    bar(Z_i) bar(c_i) = v^{2 (alpha_i, alpha_tau(i))} c_tau(i) Z_tau(i) on
    every checked node."""
    datum = params.datum
    tau = params.pair.tau

    def node_test(ctx, i):
        ti = tau[i]
        lhs = bar_element(ctx.z(i)).scale(params.c[i].bar())
        shift = Scalar.v_pow(2 * datum.bilinear(datum.simple_root(i), datum.simple_root(ti)))
        return equals(lhs, ctx.z(ti).scale(params.c[ti] * shift))

    return _decide(params, node_test)


def corollary_conditions(params: QSPParameters) -> BarReport:
    """Direct arithmetic test of the parameter conditions equivalent to the
    bar involution existing (with the sign-rescaling convention applied on
    nodes where nu = -1).  Mirrors `bar_exists` but touches only scalars."""
    pair = params.pair
    qdiff = Scalar.v_pow(2) - Scalar.v_pow(-2)

    def rescaled(ctx, j):
        return params.c[j] / qdiff if ctx.nu[j] < 0 else params.c[j]

    def node_test(ctx, i):
        ci, cti = rescaled(ctx, i), rescaled(ctx, pair.tau[i])
        if not _pinned(pair, i):
            return _split_rule(pair, i, ci, cti)
        lam = ci * Scalar.v_pow(-pair.pairing_theta_2rho(i))
        return ci == cti and bool(lam) and is_bar_fixed(lam)

    report = _decide(params, node_test)
    report.rescaled_nodes = [i for i in pair.free if report.nu[i] < 0]
    return report


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
        if _pinned(pair, i):
            if d[i] != Scalar.v_pow(pair.pairing_theta_2rho(i)):
                out.append(f"d_{i} must be the pinned q-power")
        elif not _split_rule(pair, i, d[i], d[ti]):
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
        a, b = s.get(i, ZERO), s2.get(i, ZERO)
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
