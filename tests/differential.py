"""Every suite at seed 0 in one mode of the engine, its checks written as JSON.

    PYTHONPATH=src python tests/differential.py MODE OUT [SHIPPED]
    python tests/differential.py modes

`MODES` is the table of modes; the docstring of each entry says what it
does.  Mode "shipped" runs the engine as it is.  Every other mode either
rebinds one piece of the engine to a simpler equivalent, or ("warm") runs
every suite again once the caches are filled, and each suite must give
the same checks either way.  `modes` prints the name of every mode but
"shipped", one a line.

OUT gets the checks of the mode's last run.  Given SHIPPED, the OUT of a
shipped run, the script exits with an error naming the run and the first
suite whose checks differ from it.  Run each mode in a fresh process, so
that no cache or memoised verdict carries over from another:

    PYTHONPATH=src python tests/differential.py shipped out/shipped.json
    for mode in $(python tests/differential.py modes); do
        PYTHONPATH=src python tests/differential.py $mode out/$mode.json out/shipped.json
    done
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _shipped():
    """the engine as it is"""


def _walk():
    """`equals` and `tensor_equals`, as suites and barcheck import them,
    decide every pair by the zero walk, never by comparing term dicts"""
    from qcoideal import barcheck, suites, uqg

    suites.equals = barcheck.equals = lambda a, b: uqg.is_zero(a - b)
    suites.tensor_equals = lambda s, t: uqg.tensor_is_zero(s - t)


def _scalar():
    """the zero walk runs on Scalar coefficients (`_ref_zero_walk` of
    test_uqg.py), not on integer polynomials under one common scale"""
    from qcoideal import uqg
    from test_uqg import _ref_zero_walk

    uqg._zero_walk = _ref_zero_walk


def _dict_walk():
    """the zero walk runs on the integer polynomials of
    `integer_numerators` as dicts, added one exponent at a time
    (`_ref_add_shifted` of test_uqg.py), not packed into one int each"""
    from test_uqg import _use_dict_walk

    _use_dict_walk(setattr)


def _per_row():
    """the kernel `_straighten`, which every product, q-commutator, tensor
    product and contraction calls, multiplies the full coefficient of every
    row of the commutation table and reads every shift off the K-vectors
    (`_per_row_straighten` of test_uqg.py), not one product per distinct
    base with shifts read off the shift rows"""
    from qcoideal import uqg
    from test_uqg import _per_row_straighten

    uqg._straighten = _per_row_straighten


def _pairwise():
    """every linear combination is summed pairwise by `_ref_add` of
    test_uqg.py, with `_settle` the identity, in every module that imports
    them"""
    from qcoideal import braid, suites, uqg
    from test_uqg import _ref_add

    for module in (uqg, braid, suites):
        module._gather, module._settle = _ref_add, lambda out: out


def _strip():
    """numerators are cancelled against exponent vectors by plain trial
    division over Q(i) (`_ref_strip` of test_scalars.py), with no root test
    on the coefficient dict and no memo"""
    from qcoideal import scalars
    from test_scalars import _ref_strip

    scalars._strip = _ref_strip


def _commutator():
    """`q_commutator`, as uqg, qsp and suites import it, is two products, a
    scaling and a difference (`_ref_q_commutator` of test_uqg.py), not one
    pass over the pairs of terms"""
    from qcoideal import qsp, suites, uqg
    from test_uqg import _ref_q_commutator

    uqg.q_commutator = qsp.q_commutator = suites.q_commutator = _ref_q_commutator


def _serre_order():
    """`serre_polynomial`, as uqg, qsp and suites import it, applies its
    q-commutator factors in ascending order whatever the lengths of x and y
    (`_ref_serre_polynomial` of test_uqg.py), not descending where x is at
    least as long as y"""
    from qcoideal import qsp, suites, uqg
    from test_uqg import _ref_serre_polynomial

    uqg.serre_polynomial = qsp.serre_polynomial = suites.serre_polynomial = _ref_serre_polynomial


def _tensor():
    """`Tensor.__mul__`, `Tensor.contract` and `Tensor.coproduct_slot` are
    the per-term loops that build an Element around every monomial
    (`_ref_mul`, `_ref_contract` and `_ref_coproduct_slot` of test_uqg.py),
    not the kernels called on monomials"""
    from qcoideal import uqg
    from test_uqg import _ref_contract, _ref_coproduct_slot, _ref_mul

    uqg.Tensor.__mul__ = _ref_mul
    uqg.Tensor.contract = _ref_contract
    uqg.Tensor.coproduct_slot = _ref_coproduct_slot


def _coproduct():
    """`_monomial_coproduct`, which `coproduct_graded` and
    `Tensor.coproduct_slot` call on every monomial, splits both words and
    joins the two sides on the degree (`_ref_monomial_coproduct` of
    test_uqg.py) also for a monomial with no E- or no F-letters, not
    splitting only the word it has"""
    from qcoideal import uqg
    from test_uqg import _ref_monomial_coproduct

    uqg._monomial_coproduct = _ref_monomial_coproduct


def _product():
    """`Element.__mul__` straightens every pair of terms by `_straighten`
    (`_ref_element_mul` of test_uqg.py), also where a factor is one
    monomial that needs no table and the shipped product maps each term of
    the other factor to one term"""
    from qcoideal import uqg
    from test_uqg import _ref_element_mul

    uqg.Element.__mul__ = _ref_element_mul


def _braid():
    """`apply_braid`, as braid and suites import it, is the product of the
    generator images for every monomial with no memo (`_reference_braid` of
    test_braid.py), not Horner's rule over memoised letter images;
    `apply_word` and `inverse_word` reach it through braid's own global"""
    from qcoideal import braid, suites
    from test_braid import _reference_braid

    braid.apply_braid = suites.apply_braid = _reference_braid


def _warm():
    """the engine as it is, every suite run three times in one process:
    cold, warm, and "mixed", with every scalar memo (each namespace of
    `MEMOS` but "datum") emptied before each suite and the named data kept
    warm, so the Scalars in their caches meet denominators interned again
    after them and an identity shortcut must fall back to equality; a
    memo that is wrong only once it is filled fails here"""
    from qcoideal.memos import MEMOS

    def empty_scalar_memos():
        for name, memo in MEMOS.items():
            if name != "datum":
                memo.clear()

    return {"cold": None, "warm": None, "mixed": empty_scalar_memos}


MODES = {
    "shipped": _shipped,
    "walk": _walk,
    "scalar": _scalar,
    "dict-walk": _dict_walk,
    "per-row": _per_row,
    "pairwise": _pairwise,
    "strip": _strip,
    "commutator": _commutator,
    "serre-order": _serre_order,
    "tensor": _tensor,
    "coproduct": _coproduct,
    "product": _product,
    "braid": _braid,
    "warm": _warm,
}


def main(argv):
    if argv == ["modes"]:
        print(*(mode for mode in MODES if mode != "shipped"), sep="\n")
        return
    if len(argv) not in (2, 3) or argv[0] not in MODES:
        sys.exit(__doc__)
    mode, out = argv[:2]
    # an entry rebinds the engine and returns None, or returns its runs in
    # order, {run: what to do before each suite or None}
    runs = MODES[mode]() or {mode: None}
    from qcoideal.suites import SUITES, run_suite

    results = {}
    for run, before in runs.items():
        checks = {}
        for name in SUITES:
            if before:
                before()
            checks[name] = run_suite(name, seed=0)[1]
        results[run] = json.loads(json.dumps(checks))
    Path(out).write_text(json.dumps(checks))
    if len(argv) == 3:
        for name, want in json.loads(Path(argv[2]).read_text()).items():
            for run, checks in results.items():
                if checks.get(name) != want:
                    sys.exit(f"{run}: {name}: the checks differ from the shipped run")
                print(f"{run}: {name}: {len(want)} checks, identical to the shipped run")


if __name__ == "__main__":
    main(sys.argv[1:])
