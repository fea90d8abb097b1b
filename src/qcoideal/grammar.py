"""Text grammar for scalars and algebra elements, with exact round-trip.

Scalar text is a sum of terms ``coeff * v^k`` where ``coeff`` is ``a``,
``a/b`` or a parenthesized Gaussian ``(a+b*i)``; ``q^n`` is shorthand for
``v^(2n)`` and general fractions are written ``( ... )/( ... )``.  Element
text is a ``+``-separated list of ``E[..] K{i:n,..} F[..] * (scalar)``
monomial terms.  Printing is canonical, so parse(print(x)) == x exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GQ_ONE, GaussianRational, Scalar, I_UNIT


# ---------------------------------------------------------------------------
# Scalar printing
# ---------------------------------------------------------------------------

def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return f"{_frac_str(f)}*i"


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
    if s.den == {0: GQ_ONE}:
        return _poly_to_text(s.num)
    return f"( {_poly_to_text(s.num)} )/( {_poly_to_text(s.den)} )"


# ---------------------------------------------------------------------------
# Scalar parsing: tokenizer + recursive descent with the usual precedence.
# ---------------------------------------------------------------------------

class ScalarParseError(ValueError):
    pass


def _tokenize(text):
    toks = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
        elif ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[k:j])))
            k = j
        elif ch in "+-*/^()":
            toks.append((ch, ch))
            k += 1
        elif ch in "ivq":
            toks.append((ch, ch))
            k += 1
        else:
            raise ScalarParseError(f"unexpected character {ch!r} in scalar text")
    toks.append(("end", None))
    return toks


class _ScalarParser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k][0]

    def take(self, kind=None):
        t = self.toks[self.k]
        if kind is not None and t[0] != kind:
            raise ScalarParseError(f"expected {kind}, got {t[0]}")
        self.k += 1
        return t

    def parse(self) -> Scalar:
        s = self.expr()
        if self.peek() != "end":
            raise ScalarParseError("trailing input in scalar text")
        return s

    def expr(self) -> Scalar:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        out = self.term()
        if sign < 0:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self) -> Scalar:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            f = self.factor()
            out = out * f if op == "*" else out / f
        return out

    def factor(self) -> Scalar:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -sign
            e = sign * self.take("num")[1]
            return base ** e
        return base

    def atom(self) -> Scalar:
        kind = self.peek()
        if kind == "num":
            return Scalar.from_int(self.take()[1])
        if kind == "i":
            self.take()
            return I_UNIT
        if kind == "v":
            self.take()
            return Scalar.v_pow(1)
        if kind == "q":
            self.take()
            return Scalar.v_pow(2)
        if kind == "(":
            self.take()
            s = self.expr()
            self.take(")")
            return s
        if kind == "-":
            self.take()
            return -self.atom()
        raise ScalarParseError(f"unexpected token {kind}")


def parse_scalar(text: str) -> Scalar:
    try:
        return _ScalarParser(text).parse()
    except ZeroDivisionError:
        raise ScalarParseError(f"division by zero in scalar text {text!r}") from None


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


def _split_top_level(text, sep="+"):
    depth = 0
    parts = []
    cur = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_index_list(body: str):
    body = body.strip()
    if not body:
        return ()
    return tuple(int(x) for x in body.split(","))


def parse_element(datum, text: str):
    from .uqg import Element, _add_term

    text = text.strip()
    if text == "0":
        return Element.zero(datum)
    terms = {}
    for chunk in _split_top_level(text, "+"):
        chunk = chunk.strip()
        if not chunk:
            raise ScalarParseError("empty element term")
        star = None
        depth = 0
        for pos, ch in enumerate(chunk):
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == "*" and depth == 0:
                star = pos
                break
        if star is None:
            raise ScalarParseError("element term lacks '* (coeff)' part")
        mono_text = chunk[:star].strip()
        coeff = parse_scalar(chunk[star + 1:].strip())
        _add_term(terms, _parse_monomial(datum, mono_text), coeff)
    return Element(datum, terms)


def _parse_monomial(datum, text: str):
    e = ()
    f = ()
    k = [0] * len(datum.labels)
    rest = text.strip()
    if rest == "1":
        rest = ""
    while rest:
        head = rest[0]
        if head == "E" or head == "F":
            close = rest.index("]")
            word = _parse_index_list(rest[2:close])
            for i in word:
                datum.pos(i)
            if head == "E":
                e = word
            else:
                f = word
            rest = rest[close + 1:].strip()
        elif head == "K":
            close = rest.index("}")
            body = rest[2:close].strip()
            if body:
                for item in body.split(","):
                    lab, exp = item.split(":")
                    k[datum.pos(int(lab))] += int(exp)
            rest = rest[close + 1:].strip()
        else:
            raise ScalarParseError(f"bad monomial text {text!r}")
    return (e, tuple(k), f)


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
    from .uqg import Element, _add_term

    terms = {}
    for t in obj["terms"]:
        k = [0] * len(datum.labels)
        for lab, exp in t.get("K", {}).items():
            k[datum.pos(int(lab))] += int(exp)
        e, f = tuple(t.get("E", [])), tuple(t.get("F", []))
        for i in e + f:
            datum.pos(i)
        _add_term(terms, (e, tuple(k), f), parse_scalar(t["coeff"]))
    return Element(datum, terms)
