"""Text grammar for scalars and algebra elements, with exact round-trip.

Scalar text is a sum of terms ``coeff * v^k`` where ``coeff`` is ``a``,
``a/b`` or a parenthesized Gaussian ``(a+b*i)``; ``q^n`` is shorthand for
``v^(2n)`` and general fractions are written ``( ... )/( ... )``.  The
signs in front of a factor apply to its whole power, so ``-v^2``,
``2*-v^2`` and ``1/-v^2`` all negate v^2; ``^`` takes an integer literal
with optional signs, such as ``v^-2``.  Element text is a ``+``-separated
list of ``E[..] K{i:n,..} F[..] * (scalar)`` monomial terms, each part at
most once and in that order (``1`` for none).  Printing is canonical, so
parse(print(x)) == x exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cartan import exact_int
from .scalars import GaussianRational, Scalar, I_UNIT


# ---------------------------------------------------------------------------
# Scalar printing
# ---------------------------------------------------------------------------

def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _imag_str(f: Fraction) -> str:
    return "i" if f == 1 else f"{_frac_str(f)}*i"


def _coeff_atom(c: GaussianRational):
    """Return (sign, atom) with sign in {+1,-1}; mixed coefficients keep sign +1."""
    if c.im == 0:
        f = c.re
        return (1, _frac_str(f)) if f > 0 else (-1, _frac_str(-f))
    if c.re == 0:
        f = c.im
        return (1, _imag_str(f)) if f > 0 else (-1, _imag_str(-f))
    return 1, f"({_frac_str(c.re)}{'+' if c.im > 0 else '-'}{_imag_str(abs(c.im))})"


def _poly_to_text(p) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        sign, atom = _coeff_atom(p[e])
        if e == 0:
            body = atom
        elif atom == "1":
            body = "v" if e == 1 else f"v^{e}"
        else:
            body = f"{atom}*v" if e == 1 else f"{atom}*v^{e}"
        parts.append((sign, body))
    out = ("-" if parts[0][0] < 0 else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += (" + " if sign > 0 else " - ") + body
    return out


def scalar_to_text(s: Scalar) -> str:
    if len(s.den) == 1:  # a canonical denominator is 1 exactly when it has one term
        return _poly_to_text(s.num)
    return f"( {_poly_to_text(s.num)} )/( {_poly_to_text(s.den)} )"


# ---------------------------------------------------------------------------
# Scalar parsing: one token pattern, then sums and products as loops over
# signed powers; only parentheses recurse.
# ---------------------------------------------------------------------------

class ScalarParseError(ValueError):
    pass


# an integer literal, an operator or atom letter, or any other character
_TOKEN = re.compile(r"\s*(?:(\d+)|([-+*/^()ivq])|(\S))", re.ASCII)
_ATOMS = {"i": I_UNIT, "v": Scalar.v_pow(1), "q": Scalar.v_pow(2)}
_MAX_DEPTH = 100  # nested parentheses; printed text nests two deep


def parse_scalar(text: str) -> Scalar:
    """Read scalar text, with the sign rule of the module docstring."""
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar text must be a string, got {type(text).__name__}")
    toks = []
    for num, op, bad in _TOKEN.findall(text):
        if bad:
            raise ScalarParseError(f"unexpected character {bad!r} in scalar text")
        toks.append(int(num) if num else op)
    toks.append(None)
    pos = 0

    def signs():
        nonlocal pos
        negative = False
        while toks[pos] in ("+", "-"):
            negative ^= toks[pos] == "-"
            pos += 1
        return negative

    def factor(depth):
        nonlocal pos
        negative = signs()
        tok = toks[pos]
        pos += 1
        if tok == "(":
            if depth == _MAX_DEPTH:
                raise ScalarParseError(f"scalar text nests parentheses over {_MAX_DEPTH} deep")
            out = expr(depth + 1)
            if toks[pos] != ")":
                raise ScalarParseError("missing ')' in scalar text")
            pos += 1
        elif tok.__class__ is int:
            out = Scalar.gaussian(tok)
        elif tok in _ATOMS:
            out = _ATOMS[tok]
        else:
            got = "the end" if tok is None else repr(tok)
            raise ScalarParseError(f"expected a number, i, v, q or '(' in scalar text, got {got}")
        if toks[pos] == "^":
            pos += 1
            negative_exp = signs()
            e = toks[pos]
            if e.__class__ is not int or toks[pos + 1] == "^":
                raise ScalarParseError("'^' takes an integer literal with optional signs")
            pos += 1
            out = out ** (-e if negative_exp else e)
        return -out if negative else out

    def expr(depth):
        # each term's leading sign, the binary + or - included, is read by
        # its first factor
        nonlocal pos
        total = None
        while True:
            product = factor(depth)
            while toks[pos] in ("*", "/"):
                op = toks[pos]
                pos += 1
                product = product * factor(depth) if op == "*" else product / factor(depth)
            total = product if total is None else total + product
            if toks[pos] not in ("+", "-"):
                return total

    try:
        out = expr(0)
    except ZeroDivisionError:
        raise ScalarParseError(f"division by zero in scalar text {text!r}") from None
    if toks[pos] is not None:
        raise ScalarParseError(f"trailing input {toks[pos]!r} in scalar text")
    return out


# ---------------------------------------------------------------------------
# Element printing / parsing.  Monomial keys are (e_word, k_part, f_word).
# ---------------------------------------------------------------------------

def monomial_to_text(datum, key) -> str:
    e, k, f = key
    parts = []
    if e:
        parts.append("E[" + ",".join(str(i) for i in e) + "]")
    if any(k):
        inner = ",".join(
            f"{datum.labels[p]}:{k[p]}" for p in range(len(k)) if k[p]
        )
        parts.append("K{" + inner + "}")
    if f:
        parts.append("F[" + ",".join(str(j) for j in f) + "]")
    return " ".join(parts) if parts else "1"


def element_to_text(a) -> str:
    if not a.terms:
        return "0"
    datum = a.datum
    chunks = []
    for key in sorted(a.terms):
        chunks.append(f"{monomial_to_text(datum, key)} * ({scalar_to_text(a.terms[key])})")
    return " + ".join(chunks)


def _split_top_level(text, sep):
    """Split text at each `sep` outside brackets."""
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        depth += (ch in "([{") - (ch in ")]}")
        if ch == sep and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    return parts + [text[start:]]


# E[..] K{..} F[..], each part at most once and in this order
_MONOMIAL = re.compile(r"(?:E\[([^\]]*)\])?\s*(?:K\{([^}]*)\})?\s*(?:F\[([^\]]*)\])?")


def _parse_index_list(body: str):
    return tuple(int(x) for x in body.split(",")) if body.strip() else ()


def _monomial_key(datum, e, k, f):
    """The key (e, k, f) of E_e K_k F_f from its E- and F-words and the
    (label, exponent) pairs of its K-part; every label and exponent is
    checked."""
    kvec = [0] * datum.n
    for lab, exp in k:
        kvec[datum.pos(int(lab))] += exact_int(exp, "K exponent")
    e, f = tuple(e), tuple(f)
    for i in e + f:
        datum.pos(exact_int(i, "node label"))  # 1.0 and True would pass pos()
    return (e, tuple(kvec), f)


def parse_element(datum, text: str):
    from .uqg import Element, _gather, _settle

    text = text.strip()
    if text == "0":
        return Element.zero(datum)
    terms = {}
    for chunk in _split_top_level(text, "+"):
        mono, *coeff = _split_top_level(chunk, "*")
        if not coeff:
            raise ScalarParseError(f"element term {chunk.strip()!r} lacks a '* (coeff)' part")
        _gather(terms, _parse_monomial(datum, mono), parse_scalar("*".join(coeff)))
    return Element(datum, _settle(terms))


def _parse_monomial(datum, text: str):
    text = text.strip()
    m = _MONOMIAL.fullmatch("" if text == "1" else text)
    if m is None:
        raise ScalarParseError(
            f"bad monomial text {text!r}: write E[..] K{{..}} F[..], each part"
            " at most once and in this order"
        )
    e, k, f = m.groups("")
    k = [item.split(":") for item in k.split(",") if item.strip()]
    k = [(lab, int(exp)) for lab, exp in k]
    return _monomial_key(datum, _parse_index_list(e), k, _parse_index_list(f))


# ---------------------------------------------------------------------------
# JSON forms.
# ---------------------------------------------------------------------------

def element_to_json(a):
    out = []
    for key in sorted(a.terms):
        e, k, f = key
        out.append({
            "E": list(e),
            "K": {str(a.datum.labels[p]): k[p] for p in range(len(k)) if k[p]},
            "F": list(f),
            "coeff": scalar_to_text(a.terms[key]),
        })
    return {"terms": out}


def element_from_json(datum, obj):
    from .uqg import Element, _gather, _settle

    terms = {}
    for t in obj["terms"]:
        key = _monomial_key(datum, t.get("E", ()), t.get("K", {}).items(), t.get("F", ()))
        _gather(terms, key, parse_scalar(t["coeff"]))
    return Element(datum, _settle(terms))
