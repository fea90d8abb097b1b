"""Every suite at seed 0 in one mode of the engine, its checks written as JSON.

    PYTHONPATH=src python tests/differential.py MODE OUT [SHIPPED]

Mode "shipped" runs the engine as it is.  Every other mode first rebinds
one piece of it to a simpler equivalent, and each suite must give the
same checks either way:

- walk: `equals` and `tensor_equals`, as suites and barcheck import them,
  decide every pair by the zero walk, never by comparing term dicts
- scalar: the zero walk runs on Scalar coefficients (`_ref_zero_walk` of
  test_uqg.py), not on integer polynomials under one common scale
- dict-walk: the zero walk runs on the integer polynomials of
  `integer_numerators` as dicts, added one exponent at a time
  (`_ref_add_shifted` of test_uqg.py), not packed into one int each
- per-row: the kernel `_straighten`, which every product, q-commutator,
  tensor product and contraction calls, multiplies the full coefficient
  of every row of the commutation table and reads every shift off the
  K-vectors (`_per_row_straighten` of test_uqg.py), not one product per
  distinct base with shifts read off the shift rows
- commutator: `q_commutator`, as uqg, qsp and suites import it, is two
  products, a scaling and a difference (`_ref_q_commutator` of
  test_uqg.py), not one pass over the pairs of terms
- serre-order: `serre_polynomial`, as uqg, qsp and suites import it,
  applies its q-commutator factors in ascending order whatever the lengths
  of x and y (`_ref_serre_polynomial` of test_uqg.py), not descending
  where x is at least as long as y
- product: `Element.__mul__` straightens every pair of terms by
  `_straighten` (`_ref_element_mul` of test_uqg.py), also where a factor
  is one monomial that needs no table and the shipped product maps each
  term of the other factor to one term
- pairwise: every linear combination is summed pairwise by `_ref_add` of
  test_uqg.py, with `_settle` the identity, in every module that imports
  them
- strip: numerators are cancelled against exponent vectors by plain trial
  division over Q(i) (`_ref_strip` of test_scalars.py), with no root test
  on the coefficient dict and no memo
- braid: `apply_braid`, as braid and suites import it, is the product of
  the generator images for every monomial with no memo (`_reference_braid`
  of test_braid.py), not Horner's rule over memoised letter images;
  `apply_word` and `inverse_word` reach it through braid's own global
- tensor: `Tensor.__mul__`, `Tensor.contract` and `Tensor.coproduct_slot`
  are the per-term loops that build an Element around every monomial
  (`_ref_mul`, `_ref_contract` and `_ref_coproduct_slot` of test_uqg.py),
  not the kernels called on monomials

Given SHIPPED, the OUT of a shipped run, the script exits with an error
naming the mode and the first suite whose checks differ from it.  Run each
mode in a fresh process, so that no cache or memoised verdict carries over
from another.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _rebind(mode):
    from qcoideal import barcheck, braid, qsp, scalars, suites, uqg

    if mode == "commutator":
        from test_uqg import _ref_q_commutator
        uqg.q_commutator = qsp.q_commutator = suites.q_commutator = _ref_q_commutator
    elif mode == "serre-order":
        from test_uqg import _ref_serre_polynomial
        uqg.serre_polynomial = qsp.serre_polynomial = suites.serre_polynomial = _ref_serre_polynomial
    elif mode == "product":
        from test_uqg import _ref_element_mul
        uqg.Element.__mul__ = _ref_element_mul
    elif mode == "walk":
        suites.equals = barcheck.equals = lambda a, b: uqg.is_zero(a - b)
        suites.tensor_equals = lambda s, t: uqg.tensor_is_zero(s - t)
    elif mode == "scalar":
        from test_uqg import _ref_zero_walk
        uqg._zero_walk = _ref_zero_walk
    elif mode == "dict-walk":
        from test_uqg import _use_dict_walk
        _use_dict_walk(setattr)
    elif mode == "per-row":
        from test_uqg import _per_row_straighten
        uqg._straighten = _per_row_straighten
    elif mode == "pairwise":
        from test_uqg import _ref_add
        for module in (uqg, braid, suites):
            module._gather, module._settle = _ref_add, lambda out: out
    elif mode == "strip":
        from test_scalars import _ref_strip
        scalars._strip = _ref_strip
    elif mode == "braid":
        from test_braid import _reference_braid
        braid.apply_braid = suites.apply_braid = _reference_braid
    elif mode == "tensor":
        from test_uqg import _ref_contract, _ref_coproduct_slot, _ref_mul
        uqg.Tensor.__mul__ = _ref_mul
        uqg.Tensor.contract = _ref_contract
        uqg.Tensor.coproduct_slot = _ref_coproduct_slot
    elif mode != "shipped":
        sys.exit(f"unknown mode {mode!r}")


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    mode, out = argv[:2]
    _rebind(mode)
    from qcoideal.suites import SUITES, run_suite

    Path(out).write_text(json.dumps({name: run_suite(name, seed=0)[1] for name in SUITES}))
    if len(argv) == 3:
        checks = json.loads(Path(out).read_text())
        for name, want in json.loads(Path(argv[2]).read_text()).items():
            if checks.get(name) != want:
                sys.exit(f"{mode}: {name}: the checks differ from the shipped run")
            print(f"{mode}: {name}: {len(want)} checks, identical to the shipped run")


if __name__ == "__main__":
    main(sys.argv[1:])
