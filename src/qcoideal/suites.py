"""Named verification suites driving the structural identities of every module.

Each suite returns a list of check records {"id", "ok", "detail"}; a suite
passes when every record has ok=True.  The suites are shared by the
command-line `verify` subcommand, the pytest modules, and the acceptance
gate.  All randomness is drawn from an explicit seed, so a (suite, seed)
pair always produces the same checks and the same report.
"""

from __future__ import annotations

import itertools
import random

from .barcheck import (
    bar_exists,
    canonical_params,
    check_ocZ,
    corollary_conditions,
    nu_sign,
)
from .braid import BraidOperator, apply_braid, apply_word
from .cartan import (
    CartanDatum,
    cartan_datum,
    enumerate_admissible,
    rho_check_pairing,
    tau_from_swaps,
    tau_swaps,
    validate_admissible,
)
from .grammar import element_to_text, parse_element, parse_scalar, scalar_to_text
from .qsp import (
    NoClosedFormulaError,
    QSPParameters,
    b_generator,
    c_closed,
    c_closed_torus,
    context_for,
    serre_projection,
    w_element,
)
from .scalars import (
    I_UNIT,
    ONE,
    ZERO,
    Scalar,
    qbinom_eps,
    qint,
    qshifted_factorial,
)
from .uqg import (
    Element,
    ZeroTestGuardError,
    adjoint_E,
    antipode,
    bar_element,
    coproduct,
    coproduct_graded,
    counit,
    equals,
    is_zero,
    q_commutator,
    serre_polynomial,
    sigma,
    skew_ir,
    skew_r,
    tensor_equals,
    word_weight,
    zero_test_bound,
    zero_test_guard,
    _ef_inverse,
    _gather,
    _settle,
    _tensor_of_elements,
)

Q = Scalar.q_pow(1)

HOPF_DATA = (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("affine:A", 1))

ATLAS_DATA = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
)

# independently derived pair counts for the atlas data (see tests for the
# condition-by-condition recheck)
ATLAS_EXPECTED_COUNTS = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 5, ("A", 4): 4,
    ("B", 2): 3, ("B", 3): 4, ("C", 3): 3, ("D", 4): 11, ("G", 2): 2,
}

AFFINE_SAMPLES = (
    ("affine:A", 1, (0,), ()),
    ("affine:A", 2, (0,), ((1, 2),)),
)

_SCALAR_POOL = (
    ONE,
    Q,
    -Q,
    Q ** -1,
    Q ** 2,
    ONE + Q ** 2,
    qint(2, 1),
    Scalar.gaussian(2),
)


def _check(cid, ok, detail=""):
    return {"id": cid, "ok": bool(ok), "detail": detail}


def _dname(kind, rank):
    return f"{kind}{rank}" if not kind.startswith("affine") else f"{kind.split(':')[1]}{rank}aff"


def _random_word(rng, datum, max_len=4):
    n = rng.randint(1, max_len)
    return tuple(rng.choice(datum.labels) for _ in range(n))


def _random_element(rng, datum, max_len=4, n_terms=2):
    out = {}
    for _ in range(n_terms):
        letters = _random_word(rng, datum, max_len)
        cut = rng.randint(0, len(letters))
        kvec = tuple(rng.randint(-1, 1) for _ in datum.labels)
        coeff = rng.choice(_SCALAR_POOL)
        _gather(out, (letters[:cut], kvec, letters[cut:]), coeff)
    return Element(datum, _settle(out))


def _param_family(pair, draw):
    """c on the free nodes in order, c_i = draw(t) at the t-th free node,
    except that the second node of an orthogonal split pair copies the
    first (the equality the parameter set demands) and calls no draw."""
    c = {}
    for t, i in enumerate(pair.free):
        ti = pair.tau[i]
        c[i] = c[ti] if ti in c and i in pair.theta_orthogonal else draw(t)
    return c


def _default_params(pair):
    """Deterministic admissible parameter family for a pair (c from a fixed
    pool, s = 0), respecting the orthogonal-split equality constraint."""
    pool = (Q, ONE + Q, Q ** -1, -Q)
    return QSPParameters(pair, _param_family(pair, lambda t: pool[t % len(pool)]))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def suite_scalars(seed=0):
    checks = []
    for m in range(1, 7):
        lhs = ZERO
        rhs = ZERO
        phi = ZERO
        for k in range(m + 1):
            b = qbinom_eps(m, k, 1)
            if k % 2:
                b = -b
            lhs = lhs + b * Q ** ((m - 1) * k)
            rhs = rhs + b * Q ** (-(m - 1) * k)
            phi = phi + b * Q ** ((m + 1) * k)
        checks.append(_check(f"scalars/binom-vanish+/{m}", lhs == ZERO))
        checks.append(_check(f"scalars/binom-vanish-/{m}", rhs == ZERO))
        checks.append(
            _check(
                f"scalars/binom-shifted-factorial/{m}",
                phi == qshifted_factorial(Q ** 2, m),
            )
        )
        checks.append(
            _check(
                f"scalars/bar-shifted-factorial/{m}",
                qshifted_factorial(Q ** 2, m).bar()
                == qshifted_factorial(Q ** -2, m),
            )
        )
    rng = random.Random(seed)
    for t in range(20):
        a = rng.choice(_SCALAR_POOL) + rng.choice(_SCALAR_POOL)
        b = rng.choice(_SCALAR_POOL)
        ok = (
            (a * b).bar() == a.bar() * b.bar()
            and (a + b).bar() == a.bar() + b.bar()
            and a.bar().bar() == a
        )
        if a:
            ok = ok and (a * a.inverse() == ONE)
        checks.append(_check(f"scalars/bar-field-automorphism/{t}", ok))
    return checks


# ---------------------------------------------------------------------------
# hopf
# ---------------------------------------------------------------------------

def _generators(datum):
    out = []
    for i in datum.labels:
        out.append(Element.E(datum, i))
        out.append(Element.F(datum, i))
        out.append(Element.K_i(datum, i))
    return out


def suite_hopf(seed=0):
    checks = []
    rng = random.Random(seed)
    for kind, rank in HOPF_DATA:
        datum = cartan_datum(kind, rank)
        name = _dname(kind, rank)
        labels = datum.labels
        # relations (1)-(4)
        ok1 = all(
            Element.K_i(datum, i) * Element.K_i(datum, j)
            == Element.K_i(datum, j) * Element.K_i(datum, i)
            and Element.K_i(datum, i) * Element.K_i(datum, i, -1) == Element.one(datum)
            for i in labels
            for j in labels
        )
        checks.append(_check(f"hopf/{name}/torus-relations", ok1))
        ok2 = True
        ok4 = True
        for i in labels:
            for j in labels:
                Ki = Element.K_i(datum, i)
                pair_q = Scalar.v_pow(2 * datum.bilinear(datum.simple_root(i), datum.simple_root(j)))
                ok2 = ok2 and Ki * Element.E(datum, j) == (Element.E(datum, j) * Ki).scale(pair_q)
                ok2 = ok2 and Ki * Element.F(datum, j) == (Element.F(datum, j) * Ki).scale(pair_q.inverse())
                lhs = Element.E(datum, i) * Element.F(datum, j) - Element.F(datum, j) * Element.E(datum, i)
                if i == j:
                    rhs = (Element.K_i(datum, i) - Element.K_i(datum, i, -1)).scale(
                        _ef_inverse(datum, i)
                    )
                else:
                    rhs = Element.zero(datum)
                ok4 = ok4 and equals(lhs, rhs)
        checks.append(_check(f"hopf/{name}/torus-weight-relations", ok2))
        checks.append(_check(f"hopf/{name}/ef-commutator", ok4))
        for i, j in itertools.permutations(labels, 2):
            sE = serre_polynomial(datum, i, j, Element.E(datum, i), Element.E(datum, j))
            sF = serre_polynomial(datum, i, j, Element.F(datum, i), Element.F(datum, j))
            checks.append(_check(f"hopf/{name}/serre-E({i},{j})", is_zero(sE)))
            checks.append(_check(f"hopf/{name}/serre-F({i},{j})", is_zero(sF)))
        # coproduct is an algebra map; Hopf axioms on generators + random draws
        gens = _generators(datum)
        randoms = [_random_element(rng, datum, max_len=4, n_terms=1) for _ in range(8)]
        okm = True
        for t in range(4):
            a = rng.choice(gens + randoms)
            b = rng.choice(gens + randoms)
            okm = okm and tensor_equals(coproduct(a * b), coproduct(a) * coproduct(b))
        checks.append(_check(f"hopf/{name}/coproduct-multiplicative", okm))
        okc = True
        oku = True
        oks = True
        for x in gens + randoms:
            t2 = coproduct(x)
            okc = okc and tensor_equals(t2.coproduct_slot(0), t2.coproduct_slot(1))
            oku = oku and equals(t2.counit_slot(0).as_element(), x)
            oku = oku and equals(t2.counit_slot(1).as_element(), x)
            lhs = t2.map_slot(0, antipode).contract()
            oks = oks and equals(lhs, Element.unit(datum, counit(x)))
        checks.append(_check(f"hopf/{name}/coassociativity", okc))
        checks.append(_check(f"hopf/{name}/counit-axiom", oku))
        checks.append(_check(f"hopf/{name}/antipode-axiom", oks))
    return checks


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def _r_via_coproduct(x, i):
    """First-order coproduct extraction of the right skew derivation."""
    datum = x.datum
    alpha = datum.simple_root(i)
    zero = datum.zero_vector()
    single = ((i,), zero, ())
    return Element(datum, {
        (e1, zero, f1): c
        for ((e1, k1, f1), m2), c in coproduct_graded(x, alpha).terms.items()
        if m2 == single and k1 == alpha
    })


def suite_derivations(seed=0):
    checks = []
    rng = random.Random(seed)
    for kind, rank in HOPF_DATA:
        datum = cartan_datum(kind, rank)
        name = _dname(kind, rank)
        ok_comm = ok_sigma = ok_bar = ok_cop = ok_invol = True
        for _ in range(50):
            w = _random_word(rng, datum, max_len=4)
            x = Element.E(datum, *w)
            if rng.random() < 0.3 and len(w) > 1:
                # homogeneous two-term combination of the same weight
                shuffled = list(w)
                rng.shuffle(shuffled)
                x = x + Element.E(datum, *shuffled).scale(rng.choice(_SCALAR_POOL))
            # each derivation and sigma(x) is built once and read by every
            # check of the draw
            r = {}
            for i in datum.labels:
                r[i] = skew_r(i, x)
                lhs = q_commutator(x, Element.F(datum, i), 0)
                rhs = (
                    r[i] * Element.K_i(datum, i)
                    - Element.K_i(datum, i, -1) * skew_ir(i, x)
                ).scale(_ef_inverse(datum, i))
                ok_comm = ok_comm and equals(lhs, rhs)
            i = rng.choice(datum.labels)
            sx = sigma(x)
            ok_sigma = ok_sigma and sigma(r[i]) == skew_ir(i, sx)
            ok_invol = ok_invol and sigma(sx) == x
            beta = word_weight(datum, w)
            factor = Scalar.v_pow(
                2 * datum.bilinear(
                    datum.simple_root(i),
                    tuple(a - b for a, b in zip(datum.simple_root(i), beta)),
                )
            )
            ok_bar = ok_bar and equals(
                bar_element(r[i]), skew_ir(i, bar_element(x)).scale(factor)
            )
            ok_cop = ok_cop and equals(_r_via_coproduct(x, i), r[i])
        checks.append(_check(f"derivations/{name}/commutator-form", ok_comm))
        checks.append(_check(f"derivations/{name}/sigma-intertwiner", ok_sigma))
        checks.append(_check(f"derivations/{name}/sigma-involutive", ok_invol))
        checks.append(_check(f"derivations/{name}/bar-intertwiner", ok_bar))
        checks.append(_check(f"derivations/{name}/coproduct-vs-word-formula", ok_cop))
    return checks


# ---------------------------------------------------------------------------
# braid
# ---------------------------------------------------------------------------

def suite_braid(seed=0):
    checks = []
    rng = random.Random(seed)
    rank2_data = [
        ("m2", CartanDatum([[2, 0], [0, 2]])),
        ("m3", cartan_datum("A", 2)),
        ("m4", cartan_datum("B", 2)),
        ("m6", cartan_datum("G", 2)),
    ]
    for tag, datum in rank2_data:
        m = datum.coxeter_m(1, 2)
        w1 = tuple(1 if t % 2 == 0 else 2 for t in range(m))
        w2 = tuple(2 if t % 2 == 0 else 1 for t in range(m))
        ok = all(
            equals(apply_word(w1, g), apply_word(w2, g))
            for g in _generators(datum)
        )
        checks.append(_check(f"braid/{tag}/braid-relation", ok))
    for kind, rank in HOPF_DATA:
        datum = cartan_datum(kind, rank)
        name = _dname(kind, rank)
        ok_inv = True
        ok_sig = True
        ok_bar = True
        ok_t21 = True
        samples = _generators(datum) + [
            _random_element(rng, datum, max_len=3, n_terms=1) for _ in range(3)
        ]
        for i in datum.labels:
            for e in (1, -1):
                fwd = BraidOperator(i, True, e)
                bwd = fwd.inverse()
                for g in _generators(datum):
                    ok_inv = ok_inv and equals(apply_braid(bwd, apply_braid(fwd, g)), g)
            for x in samples[:6]:
                lhs = apply_braid(BraidOperator(i), sigma(x))
                rhs = sigma(apply_braid(BraidOperator(i, False, -1), x))
                ok_sig = ok_sig and equals(lhs, rhs)
                for e in (1, -1):
                    ok_bar = ok_bar and equals(
                        bar_element(apply_braid(BraidOperator(i, True, e), x)),
                        apply_braid(BraidOperator(i, True, -e), bar_element(x)),
                    )
                    ok_bar = ok_bar and equals(
                        bar_element(apply_braid(BraidOperator(i, False, e), x)),
                        apply_braid(BraidOperator(i, False, -e), bar_element(x)),
                    )
            for x in samples:
                for key in x.terms:
                    deg = x.degree_of_key(key)
                    break
                else:
                    continue
                if any(x.degree_of_key(k) != deg for k in x.terms):
                    continue
                n2 = datum.bilinear(datum.simple_root(i), deg)
                if n2 % datum.epsilon(i):
                    continue
                n = n2 // datum.epsilon(i)
                for e in (1, -1):
                    rhs = apply_braid(BraidOperator(i, False, e), x).scale(
                        Scalar.v_pow(2 * datum.epsilon(i) * e * n)
                    )
                    if n % 2:
                        rhs = -rhs
                    ok_t21 = ok_t21 and equals(apply_braid(BraidOperator(i, True, e), x), rhs)
        checks.append(_check(f"braid/{name}/mutual-inverses", ok_inv))
        checks.append(_check(f"braid/{name}/sigma-conjugates-to-inverse", ok_sig))
        checks.append(_check(f"braid/{name}/bar-flips-sign", ok_bar))
        checks.append(_check(f"braid/{name}/family-weight-twist", ok_t21))
    # reduced-word independence of the parabolic longest braid element
    a3 = cartan_datum("A", 3)
    for g in (Element.E(a3, 1), Element.F(a3, 3), Element.E(a3, 2)):
        ok = equals(apply_word((1, 2, 1), g), apply_word((2, 1, 2), g))
        checks.append(
            _check(f"braid/A3/longest-word-independence/{element_to_text(g)}", ok)
        )
    b3 = cartan_datum("B", 3)
    for g in (Element.E(b3, 1), Element.E(b3, 2)):
        ok = equals(apply_word((2, 3, 2, 3), g), apply_word((3, 2, 3, 2), g))
        checks.append(
            _check(f"braid/B3/longest-word-independence/{element_to_text(g)}", ok)
        )
    return checks


# ---------------------------------------------------------------------------
# sigma-tau invariance of the twisted first-order components
# ---------------------------------------------------------------------------

SIGMA_TAU_PAIRS = (
    ("A", 3, (2,), ((1, 3),)),
    ("A", 4, (2, 3), ((1, 4), (2, 3))),
    ("B", 2, (2,), ()),
    ("B", 3, (2, 3), ()),
)


def _case_datum(kind, rank):
    if kind == "matrix:a1xa1":
        return CartanDatum([[2, 0], [0, 2]])
    return cartan_datum(kind, rank)


def _build_pair(kind, rank, X, tau_pairs):
    datum = _case_datum(kind, rank)
    return validate_admissible(datum, set(X), tau_from_swaps(datum, tau_pairs))


def suite_sigma_tau(seed=0):
    checks = []
    for kind, rank, X, tau_pairs in SIGMA_TAU_PAIRS:
        pair = _build_pair(kind, rank, X, tau_pairs)
        ctx = context_for(pair)
        name = f"{kind}{rank}/X={list(X)}"
        for i in pair.free:
            checks.append(
                _check(f"sigma-tau/{name}/node-{i}", nu_sign(ctx, i) == 1)
            )
    # the intermediate first-order identity at the smallest rank
    pair = _build_pair("A", 3, (2,), ((1, 3),))
    lhs = skew_r(1, context_for(pair).twisted(1))
    rhs = Element.E(pair.datum, 2).scale(ONE - Q ** -2)
    checks.append(_check("sigma-tau/A3/first-order-component", equals(lhs, rhs)))
    return checks


# ---------------------------------------------------------------------------
# nu-atlas
# ---------------------------------------------------------------------------

def suite_nu_atlas(seed=0):
    checks = []
    for kind, rank in ATLAS_DATA:
        datum = cartan_datum(kind, rank)
        pairs = enumerate_admissible(datum)
        expected = ATLAS_EXPECTED_COUNTS[(kind, rank)]
        checks.append(
            _check(
                f"nu-atlas/{kind}{rank}/pair-count",
                len(pairs) == expected,
                f"found {len(pairs)}, expected {expected}",
            )
        )
        for pair in pairs:
            ctx = context_for(pair)
            ok = all(nu_sign(ctx, i) == 1 for i in pair.free)
            checks.append(
                _check(
                    f"nu-atlas/{kind}{rank}/X={sorted(pair.X)}/tau={tau_swaps(pair.tau)}",
                    ok,
                )
            )
    for kind, rank, X, tau_pairs in AFFINE_SAMPLES:
        pair = _build_pair(kind, rank, X, tau_pairs)
        ctx = context_for(pair)
        values = {i: nu_sign(ctx, i) for i in pair.free}
        ok = all(v in (1, -1) for v in values.values())
        checks.append(
            _check(
                f"nu-atlas/affine-{_dname(kind, rank)}/X={list(X)}",
                ok,
                f"computed signs {values} (conjectured +1; reported, not asserted)",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# bar of the Z elements
# ---------------------------------------------------------------------------

def suite_bar_z(seed=0):
    checks = []
    for kind, rank in ATLAS_DATA:
        datum = cartan_datum(kind, rank)
        for pair in enumerate_admissible(datum):
            ctx = context_for(pair)
            if not pair.free:
                continue
            ok = all(check_ocZ(ctx, i) for i in pair.free)
            oksym = all(
                nu_sign(ctx, i) == nu_sign(ctx, pair.tau[i])
                and ctx.ell(i) == ctx.ell(pair.tau[i])
                for i in pair.free
            )
            okcor = True
            for i in pair.free:
                sign = nu_sign(ctx, i)
                # bar of the twisted component against its tau-partner, with
                # the parity of alpha_i(2 rho_X^vee) entering as a sign
                par = rho_check_pairing(datum, pair.X, datum.simple_root(i)) * 2
                P_i = skew_r(i, ctx.twisted(i))
                P_t = skew_r(pair.tau[i], ctx.twisted(pair.tau[i]))
                rhs = P_t.scale(ctx.ell(i))
                if sign < 0:
                    rhs = -rhs
                if int(par) % 2:
                    rhs = -rhs
                okcor = okcor and equals(bar_element(P_i), rhs)
            tag = f"{kind}{rank}/X={sorted(pair.X)}/tau={tau_swaps(pair.tau)}"
            checks.append(_check(f"bar-z/{tag}/bar-of-Z", ok))
            checks.append(_check(f"bar-z/{tag}/tau-symmetry", oksym))
            checks.append(_check(f"bar-z/{tag}/bar-of-component", okcor))
    return checks


# ---------------------------------------------------------------------------
# closed formulas vs oracle, and the full serre sweep
# ---------------------------------------------------------------------------

CLOSED_CASES = (
    # (kind, rank, X, tau_pairs, i, j, torus_form_too)
    ("matrix:a1xa1", 0, (), ((1, 2),), 1, 2, False),
    ("A", 2, (), ((1, 2),), 1, 2, False),
    ("affine:A", 1, (), ((0, 1),), 0, 1, False),
    ("matrix:a1xa1", 0, (), (), 1, 2, False),
    ("A", 2, (), (), 1, 2, False),
    ("B", 2, (), (), 1, 2, False),
    ("B", 2, (), (), 2, 1, False),
    ("G", 2, (), (), 1, 2, False),
    ("G", 2, (), (), 2, 1, False),
    ("B", 2, (2,), (), 1, 2, True),
    ("C", 3, (1, 3), (), 2, 1, True),
    ("C", 3, (1, 3), (), 2, 3, True),
    ("D", 4, (1, 2, 3), ((1, 3),), 4, 2, True),
)


def suite_cij(seed=0):
    checks = []
    for kind, rank, X, tau_pairs, i, j, torus_too in CLOSED_CASES:
        pair = _build_pair(kind, rank, X, tau_pairs)
        params = _default_params(pair)
        name = f"cij/{_dname(kind, rank) if not kind.startswith('matrix') else 'A1xA1'}/X={list(X)}/({i},{j})"
        Y, cell = serre_projection(params, i, j)
        oracle = Y - cell
        closed = c_closed(params, i, j)
        checks.append(_check(f"{name}/closed-vs-oracle", equals(closed, oracle)))
        if torus_too:
            torus = c_closed_torus(params, i, j)
            checks.append(_check(f"{name}/torus-form-vs-oracle", equals(torus, oracle)))
        checks.append(
            _check(f"{name}/serre-defect", is_zero(cell))
        )
    return checks


def _pair_tag(pair):
    """(X, tau_pairs) of a pair as sorted tuples."""
    return tuple(sorted(pair.X)), tuple(tau_swaps(pair.tau))


def _serre_tasks():
    """One sweep task (kind, rank, X, tau_pairs) per admissible atlas pair
    with an ordered pair (i, j) of distinct nodes."""
    tasks = []
    for kind, rank in ATLAS_DATA:
        datum = cartan_datum(kind, rank)
        if datum.n < 2:
            continue
        for pair in enumerate_admissible(datum):
            tasks.append((kind, rank) + _pair_tag(pair))
    return tasks


def _serre_case(params, i, j):
    """(ok, detail): the oracle defect vanishes and, in scope, the closed
    formula agrees with the oracle."""
    Y, cell = serre_projection(params, i, j)
    ok = is_zero(cell)
    try:
        closed = c_closed(params, i, j)
    except NoClosedFormulaError:
        return ok, "no closed form in scope"
    return ok and equals(closed, Y - cell), ""


def _serre_group(args):
    """Check every ordered (i, j) of one pair, taken from its datum's
    enumerated pairs, with its default parameters, under the zero-test
    bound carried in the task; a case that raises becomes that case's
    failing record, except a guard hit, which ends the sweep."""
    kind, rank, X, tau_pairs, limit = args
    pair = next(
        p for p in enumerate_admissible(cartan_datum(kind, rank))
        if _pair_tag(p) == (X, tau_pairs)
    )
    params = _default_params(pair)
    checks = []
    for i, j in itertools.permutations(params.datum.labels, 2):
        tag = f"serre/{kind}{rank}/X={list(X)}/tau={list(tau_pairs)}/({i},{j})"
        try:
            with zero_test_guard(limit):
                ok, detail = _serre_case(params, i, j)
        except ZeroTestGuardError:
            raise
        except Exception as exc:
            import traceback

            traceback.print_exc()
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(_check(tag, ok, detail))
    return checks


def suite_serre_sweep(seed=0, jobs=1):
    # a worker started by spawn or forkserver does not inherit the bound
    tasks = [task + (zero_test_bound.get(),) for task in _serre_tasks()]
    if jobs > 1:
        # imported here: a run without a pool never loads multiprocessing
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            groups = pool.map(_serre_group, tasks)
    else:
        groups = [_serre_group(t) for t in tasks]
    checks = [c for group in groups for c in group]
    checks.sort(key=lambda c: c["id"])
    return checks


# ---------------------------------------------------------------------------
# coideal structural identities
# ---------------------------------------------------------------------------

QSP_PAIRS = (
    ("A", 2, (), ((1, 2),)),
    ("A", 3, (2,), ((1, 3),)),
    ("B", 2, (2,), ()),
    ("B", 2, (), ()),
    ("C", 3, (1, 3), ()),
)


def suite_qsp_structure(seed=0):
    checks = []
    for kind, rank, X, tau_pairs in QSP_PAIRS:
        pair = _build_pair(kind, rank, X, tau_pairs)
        datum = pair.datum
        ctx = context_for(pair)
        params = _default_params(pair)
        name = f"qsp/{kind}{rank}/X={list(X)}"
        # torus commutation against the fixed sublattice
        ok1 = True
        for beta in pair.theta_fixed_vectors():
            K = Element.K(datum, beta)
            for i in datum.labels:
                B = b_generator(params, i)
                factor = Scalar.v_pow(-2 * datum.bilinear(beta, datum.simple_root(i)))
                ok1 = ok1 and equals(K * B, (B * K).scale(factor))
        checks.append(_check(f"{name}/torus-commutation", ok1))
        # E_i against B_j for i in X
        ok2 = True
        for i in sorted(pair.X):
            for j in datum.labels:
                lhs = Element.E(datum, i) * b_generator(params, j) - b_generator(
                    params, j
                ) * Element.E(datum, i)
                if i == j:
                    rhs = (Element.K_i(datum, i) - Element.K_i(datum, i, -1)).scale(
                        _ef_inverse(datum, i)
                    )
                else:
                    rhs = Element.zero(datum)
                ok2 = ok2 and equals(lhs, rhs)
        checks.append(_check(f"{name}/e-against-b", ok2))
        # first-order coproduct shape of the twisted element, and of B_i
        for i in pair.free:
            ti = pair.tau[i]
            alpha_i = datum.simple_root(i)
            alpha_ti = datum.simple_root(ti)
            base = ctx.theta_fk(i) * Element.K_i(datum, i, -1)
            cell = coproduct_graded(base, alpha_ti)
            want = _tensor_of_elements([
                ctx.z(i),
                Element.E(datum, ti) * Element.K_i(datum, i, -1),
            ])
            checks.append(
                _check(
                    f"{name}/first-order-cell/node-{i}",
                    tensor_equals(cell, want),
                )
            )
            for j in sorted(pair.X):
                target = tuple(a + b for a, b in zip(alpha_ti, datum.simple_root(j)))
                cell2 = coproduct_graded(base, target)
                want2 = _tensor_of_elements([
                    w_element(ctx, i, j) * Element.K_i(datum, j),
                    adjoint_E(j, Element.E(datum, ti)) * Element.K_i(datum, i, -1),
                ])
                checks.append(
                    _check(
                        f"{name}/second-order-cell/node-{i}-{j}",
                        tensor_equals(cell2, want2),
                    )
                )
            # B_i first-order coproduct cells
            B = b_generator(params, i)
            cop = coproduct(B)
            kkey = ((), tuple(-x for x in alpha_i), ())
            fkey = ((), datum.zero_vector(), (i,))
            zkey = ((ti,), tuple(-x for x in alpha_i), ())
            cells = {kkey: {}, fkey: {}, zkey: {}}
            for (m1, m2), c in cop.terms.items():
                if m2 in cells:
                    cells[m2][m1] = c
            kcell, fcell, zcell = (Element(datum, cells[key]) for key in (kkey, fkey, zkey))
            okb = equals(kcell, B)
            okb = okb and equals(fcell, Element.one(datum))
            okb = okb and equals(zcell, ctx.z(i).scale(params.c[i]))
            checks.append(_check(f"{name}/coideal-first-order/node-{i}", okb))
        # Z commutation in the split setting
        for i in pair.free:
            ti = pair.tau[i]
            if ti == i:
                continue
            m = 1 - datum.a(i, ti)
            e = datum.epsilon(i)
            B = b_generator(params, i)
            okz = equals(
                ctx.z(ti) * B,
                (B * ctx.z(ti)).scale(Scalar.v_pow(-2 * e * (m + 1))),
            ) and equals(
                ctx.z(i) * B,
                (B * ctx.z(i)).scale(Scalar.v_pow(2 * e * (m + 1))),
            )
            checks.append(_check(f"{name}/z-commutation/node-{i}", okz))
        # W consistency through the double derivation
        for i in pair.free:
            if pair.tau[i] != i:
                continue
            for j in sorted(pair.X):
                pairing = datum.bilinear(datum.simple_root(i), datum.simple_root(j))
                if pairing == 0:
                    continue
                lhs = skew_r(j, ctx.z(i))
                rhs = w_element(ctx, i, j).scale(ONE - Scalar.v_pow(4 * pairing))
                checks.append(
                    _check(
                        f"{name}/w-from-z/node-{i}-{j}",
                        equals(lhs, rhs),
                    )
                )
    return checks


# ---------------------------------------------------------------------------
# bar-existence worked decisions
# ---------------------------------------------------------------------------

def suite_bar_examples(seed=0):
    checks = []
    a3 = cartan_datum("A", 3)
    case1 = validate_admissible(a3, {2}, {1: 3, 2: 2, 3: 1})
    case2 = validate_admissible(a3, set(), {1: 3, 2: 2, 3: 1})
    rep = bar_exists(QSPParameters(case1, {1: Q, 3: Q}))
    checks.append(_check("bar-examples/caseI/accept(q,q)", rep.exists))
    rep = bar_exists(QSPParameters(case1, {1: Q, 3: Q ** -1}))
    checks.append(_check("bar-examples/caseI/reject(q,q^-1)", not rep.exists))
    rep = bar_exists(QSPParameters(case1, {1: ONE, 3: ONE}))
    checks.append(_check("bar-examples/caseI/reject(1,1)", not rep.exists))
    rep = bar_exists(QSPParameters(case2, {1: ONE, 2: Q ** -1, 3: ONE}))
    checks.append(_check("bar-examples/caseII/accept(1,q^-1,1)", rep.exists))
    rep = bar_exists(QSPParameters(case2, {1: ONE, 2: ONE, 3: ONE}))
    checks.append(
        _check(
            "bar-examples/caseII/reject(1,1,1)",
            (not rep.exists) and rep.failing_nodes == [2],
        )
    )
    d = canonical_params(case2)
    checks.append(
        _check(
            "bar-examples/caseII/canonical",
            d == {1: ONE, 2: Q ** -1, 3: ONE},
            {k: scalar_to_text(v) for k, v in sorted(d.items())}.__repr__(),
        )
    )
    rng = random.Random(seed)
    pool = list(_SCALAR_POOL) + [I_UNIT * Q, (ONE + Q ** 2) * Q ** -1]
    for tag, pair in (("caseI", case1), ("caseII", case2)):
        agree = True
        for _ in range(20):
            params = QSPParameters(pair, _param_family(pair, lambda t: rng.choice(pool)))
            agree = agree and (
                bar_exists(params).exists == corollary_conditions(params).exists
            )
        checks.append(_check(f"bar-examples/{tag}/corollary-agreement", agree))
    for kind, rank, X, tau_pairs in QSP_PAIRS:
        pair = _build_pair(kind, rank, X, tau_pairs)
        d = canonical_params(pair)
        rep = bar_exists(QSPParameters(pair, d))
        checks.append(
            _check(f"bar-examples/canonical-exists/{kind}{rank}/X={list(X)}", rep.exists)
        )
    return checks


# ---------------------------------------------------------------------------
# grammar round-trips
# ---------------------------------------------------------------------------

def suite_roundtrip(seed=0):
    checks = []
    rng = random.Random(seed)
    data = [cartan_datum("A", 2), cartan_datum("B", 2), cartan_datum("A", 3)]
    ok = True
    bad = ""
    for t in range(200):
        datum = data[t % len(data)]
        x = _random_element(rng, datum, max_len=3, n_terms=rng.randint(1, 3))
        denom = rng.choice((ONE, ONE + Q ** 2, Q - Q ** -1))
        x = x.scale(denom.inverse())
        text = element_to_text(x)
        back = parse_element(datum, text)
        if back != x:
            ok = False
            bad = text
            break
    checks.append(_check("roundtrip/elements", ok, bad))
    ok = True
    for t in range(200):
        a = rng.choice(_SCALAR_POOL) + rng.choice(_SCALAR_POOL) * I_UNIT
        b = rng.choice((ONE, ONE + Q ** 2, Q ** 2 - Q ** -2))
        s = a / b if b else a
        if parse_scalar(scalar_to_text(s)) != s:
            ok = False
            break
    checks.append(_check("roundtrip/scalars", ok))
    return checks


SUITES = {
    "scalars": suite_scalars,
    "hopf": suite_hopf,
    "derivations": suite_derivations,
    "braid": suite_braid,
    "sigma-tau": suite_sigma_tau,
    "nu-atlas": suite_nu_atlas,
    "bar-z": suite_bar_z,
    "cij-closed-vs-oracle": suite_cij,
    "serre-oracle-sweep": suite_serre_sweep,
    "qsp-structure": suite_qsp_structure,
    "bar-examples": suite_bar_examples,
    "roundtrip": suite_roundtrip,
}


def run_suite(name, seed=0, jobs=1):
    """Run a named suite; returns (all_ok, list of check records)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if name == "serre-oracle-sweep":
        checks = fn(seed=seed, jobs=jobs)
    else:
        checks = fn(seed=seed)
    return all(c["ok"] for c in checks), checks
