"""Expression parser and evaluator for the command-line front end.

Grammar (precedence ^ > * > + -, left associative sums and products):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" nonneg-int)*
    atom   := "U" | "Us" | "V" | "Vi" | "id" | "i"
            | number ["/" number] ["i"]
            | "diag" "(" name ")"
            | "comm" "(" expr "," expr ")"
            | "adj" "(" expr ")"
            | "(" expr ")" | "-" atom

Negative powers are spelled Us / Vi, never "^-1"; exponents above
MAX_EXPONENT are a math-domain error, and a digit run longer than
MAX_DIGITS is a syntax error, and so are parentheses nested deeper than
MAX_NESTING.  A product whose degree span
(max - min + 1) would exceed MAX_SPAN, or whose largest |degree| would
exceed profinite.MAX_CORRECTION_KEY, is a math-domain error, raised
before it is formed; so are literals wider in all than MAX_DIGITS digits
to the MAX_EXPONENT, refused by parse from the AST, and a power of any
other element whose coefficients could grow as wide, refused by eval_ast
from the base's rows.  diag(name) reads a
workspace sequence in either algebra; in B(N) one with a c00 correction
is a side mismatch.
"""

from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

from .scalars import Scalar
from .errors import (
    ExprSyntaxError,
    MathDomainError,
    SideMismatch,
    UnknownName,
)
from .profinite import (
    MAX_CORRECTION_KEY, LocallyConstantFunction, SupernaturalNumber)
from .sequences import EPSequence
from . import algebra

_KEYWORDS = {"U", "Us", "V", "Vi", "id", "i", "diag", "comm", "adj"}
# the generator atoms: node kind -> (name, side, power)
_GENERATORS = {
    "u": ("U", "unilateral", 1),
    "us": ("Us", "unilateral", -1),
    "v": ("V", "bilateral", 1),
    "vi": ("Vi", "bilateral", -1),
}
_ATOMS = {name: (kind,) for kind, (name, _, _) in _GENERATORS.items()}
_ATOMS["id"] = ("id",)
_PUNCT = "+-*^(),/"
_CHAIN = {"add", "sub", "mul", "pow", "neg"}

MAX_INPUT = 1 << 20
MAX_EXPONENT = 1024
MAX_DIGITS = 4000
# at this span normalize '(U+Us)^128' takes 0.14-0.23 s and '(V+Vi)^128'
# 36-47 ms in-process on a 2-core host, both on the pair loop: their
# binomial coefficients outgrow a Kronecker slot
MAX_SPAN = 257
# each open parenthesis costs the recursive-descent parser four or five
# Python frames, so 64 levels stay far inside the default recursion limit
MAX_NESTING = 64
# MAX_DIGITS digits to the MAX_EXPONENT in _literal_bits' measure, 1.4e7
_MAX_LITERAL_BITS = MAX_EXPONENT * ((10 ** MAX_DIGITS).bit_length() + 1)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r}, {self.pos})"


def _lex(text):
    if len(text) > MAX_INPUT:
        raise ExprSyntaxError("input exceeds 1 MB", 0)
    tokens = []
    i, n, depth = 0, len(text), 0
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING}", i)
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ExprSyntaxError(
                    f"number exceeds {MAX_DIGITS} digits", i
                )
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.pos,
            )
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_atom()
        while self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ExprSyntaxError(
                    "exponent must be a nonnegative integer "
                    "(negative powers are spelled Us or Vi)",
                    tok.pos if tok.kind != "end" else caret.pos,
                )
            self.advance()
            node = ("pow", node, int(tok.text))
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "-":
            # a run of signs is read by a loop, not one frame per sign
            signs = 0
            while self.peek().kind == "-":
                self.advance()
                signs += 1
            node = self.parse_atom()
            for _ in range(signs):
                node = ("neg", node)
            return node
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "int":
            return ("num", self._number())
        if tok.kind == "name":
            return self._named()
        raise ExprSyntaxError(
            f"expected an operand, found {tok.text or 'end of input'!r}",
            tok.pos,
        )

    def _number(self):
        num = int(self.advance().text)
        den = 1
        if self.peek().kind == "/":
            self.advance()
            den = int(self.expect("int").text)
            if den == 0:
                raise ExprSyntaxError("zero denominator", self.tokens[self.k - 1].pos)
        value = Scalar(Fraction(num, den))
        nxt = self.peek()
        if nxt.kind == "name" and nxt.text == "i":
            self.advance()
            value = value * Scalar(0, 1)
        return value

    def _named(self):
        tok = self.advance()
        name = tok.text
        if name in _ATOMS:
            return _ATOMS[name]
        if name == "i":
            return ("num", Scalar(0, 1))
        if name == "diag":
            self.expect("(")
            inner = self.expect("name")
            if inner.text in _KEYWORDS:
                raise ExprSyntaxError(
                    f"{inner.text!r} is reserved", inner.pos
                )
            self.expect(")")
            return ("diag", inner.text)
        if name == "comm":
            self.expect("(")
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect(")")
            return ("comm", a, b)
        if name == "adj":
            self.expect("(")
            a = self.parse_expr()
            self.expect(")")
            return ("adj", a)
        raise ExprSyntaxError(f"unknown token {name!r}", tok.pos)


def parse(text):
    """Parse to an AST of nested tuples."""
    parser = _Parser(_lex(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    _literal_bits(node)
    return node


def _literal_bits(node, spent=None):
    """A bound on the bit lengths in the value of a literal-only subtree,
    None for any other: k(b + 1) for a k-th power, b + c + 1 for a sum or
    a product.  spent[0] adds up these bounds over the literal-only
    subtrees of one expression, which is refused at the first link where
    that sum, or one power alone, passes _MAX_LITERAL_BITS."""
    spent = spent or [0]
    links, node = _left_chain(node)
    if node[0] == "num":
        bits = max(x.bit_length() for x in node[1]._t)
        spent[0] += bits
    else:
        for x in node[1:]:
            if type(x) is tuple:
                _literal_bits(x, spent)
        bits = None
    for kind, *_, arg in links:
        if kind == "pow" and bits is not None:
            spent[0] += max(arg * (bits + 1) - bits, 0)
            bits = arg * (bits + 1)
            if bits > _MAX_LITERAL_BITS:
                raise MathDomainError(
                    f"a literal power of up to {bits} bits exceeds "
                    f"{_MAX_LITERAL_BITS}")
        elif kind in ("add", "sub", "mul"):
            c = _literal_bits(arg, spent)
            bits = None if bits is None or c is None else bits + c + 1
            spent[0] += bits is not None
        if spent[0] > _MAX_LITERAL_BITS:
            raise MathDomainError(f"literals of up to {spent[0]} bits in "
                                  f"all exceed {_MAX_LITERAL_BITS}")
    return bits


def _left_chain(node):
    """The links of the chain of sums, products, powers and negations
    nested on the left of node, innermost first, and the node they start
    from: parse nests a long flat sum this way, so walking it by a loop
    keeps one Python frame per link off the stack.  The last item of a
    link is its right operand, or the exponent of a power."""
    links = []
    while node[0] in _CHAIN:
        links.append(node)
        node = node[1]
    return links[::-1], node


# ---------------------------------------------------------------------------
# evaluation


def check_span(factors):
    """Refuse a product of (degrees, power) factors, each the degree set
    of an element or of a derivation, whose degree span would exceed
    MAX_SPAN, or whose largest |degree| would exceed MAX_CORRECTION_KEY:
    U^p (U*)^p writes p cutoff corrections."""
    if not all(degrees for degrees, _ in factors):
        return
    span = 1 + sum(k * (max(degrees) - min(degrees))
                   for degrees, k in factors)
    if span > MAX_SPAN:
        raise MathDomainError(f"degree span {span} exceeds {MAX_SPAN}")
    top = sum(k * max(max(degrees), -min(degrees)) for degrees, k in factors)
    if top > MAX_CORRECTION_KEY:
        raise MathDomainError(f"degree {top} exceeds {MAX_CORRECTION_KEY}")


def _power(base, k, one):
    """base^k by repeated squaring.  The arithmetic is exact, so grouping
    the factors differently cannot change the result."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _row_bits(x):
    """The largest bit length of a numerator or denominator in the
    coefficient rows of element x."""
    return max((v.bit_length() for a in x.terms.values() for v in (
        a.den, *a.re, *a.im, *chain.from_iterable(a.corr.values()))),
        default=0)


def eval_ast(node, env, side):
    """Evaluate to a canonical element of the requested side.  The chain
    nested on the left of node is walked by a loop (see _left_chain).  A
    power is refused before it is formed when k (b + t) exceeds
    _MAX_LITERAL_BITS, for b the widest integer in the base's rows and t
    the bit length of its term count."""
    if side not in ("unilateral", "bilateral"):
        raise ValueError(f"unknown side {side!r}")
    uni = side == "unilateral"
    N = env.N

    def identity():
        return algebra.identity_element(N) if uni \
            else algebra.bilateral_identity(N)

    links, node = _left_chain(node)
    kind = node[0]
    if kind in _GENERATORS:
        name, home, power = _GENERATORS[kind]
        if side != home:
            raise SideMismatch(f"{name} lives on the {home} side")
        x = (algebra.u_element if uni else algebra.v_element)(N, power)
    elif kind == "id":
        x = identity()
    elif kind == "num":
        x = identity() * node[1]
    elif kind == "diag":
        value = env.sequences.get(node[1])
        if value is None:
            raise UnknownName(f"no sequence named {node[1]!r}")
        if not isinstance(value, (EPSequence, LocallyConstantFunction)):
            raise UnknownName(
                f"cannot use {type(value).__name__} as a diagonal")
        if uni:
            x = algebra.diag_element(EPSequence._cast(value))
        elif value.corr:
            raise SideMismatch(
                "sequence with c00 corrections has no bilateral diagonal")
        else:
            x = algebra.bilateral_diag(LocallyConstantFunction._cast(value))
    elif kind == "comm":
        x, y = eval_ast(node[1], env, side), eval_ast(node[2], env, side)
        check_span(((x.terms, 1), (y.terms, 1)))
        x = algebra.commutator(x, y)
    elif kind == "adj":
        x = algebra.adjoint(eval_ast(node[1], env, side))
    else:
        raise ValueError(f"unknown node {kind!r}")
    for kind, *_, arg in links:
        if kind == "neg":
            x = -x
        elif kind == "pow":
            if arg > MAX_EXPONENT:
                raise MathDomainError(
                    f"exponent {arg} exceeds {MAX_EXPONENT}")
            check_span(((x.terms, arg),))
            bits = arg * (_row_bits(x) + len(x.terms).bit_length())
            if bits > _MAX_LITERAL_BITS:
                raise MathDomainError(f"a power of up to {bits} bits "
                                      f"exceeds {_MAX_LITERAL_BITS}")
            x = _power(x, arg, identity())
        else:
            y = eval_ast(arg, env, side)
            if kind == "mul":
                check_span(((x.terms, 1), (y.terms, 1)))
                x = x * y
            else:
                x = x + y if kind == "add" else x - y
    return x


def parse_gaussian(text):
    """Exact scalar from an arithmetic expression over literals only,
    evaluated as a multiple of the identity of B(1)."""
    node = parse(text)
    if _literal_bits(node) is None:
        raise ExprSyntaxError("expected a scalar expression", 0)
    b = eval_ast(node, SimpleNamespace(N=SupernaturalNumber({})), "bilateral")
    return algebra.expectation(b).value_at(0)
