"""Tokenizer, recursive-descent parser, and evaluator for NC rational expressions.

Grammar (whitespace insignificant, unary minus only at the head of an expr):

    expr    := ["-"] term { ("+" | "-") term }
    term    := factor { "*" factor }
    factor  := base [ "^" ( "-1" | nonneg-integer ) ]
    base    := "(" expr ")" | "inv" "(" expr ")" | variable | literal
    variable := "z" positive-integer
    literal  := decimal | decimal "i" | "(" decimal ("+"|"-") decimal "i" ")"

``e^k`` with k >= 0 expands to a repeated product at parse time, ``e^-1``
and ``inv(e)`` both produce an inverse node, so the AST stays minimal.

ASTs are normalized: sums and products are flattened n-ary nodes, negations
are hoisted out of products and folded on scalars, scalar constants carry a
canonical sign (real part positive, or zero real part and nonnegative
imaginary part).  ``parse(format(a))`` reproduces ``normalize(a)`` exactly.

Every walk of the tree, here and in the realization compiler and the CLI,
is one ``fold`` with its own operations, so only this module knows the node
classes; the formatter alone recurses by hand, as its parentheses depend on
the parent.

An expression here is a single syntactic object; equality of the NC rational
*functions* two expressions may represent is decided numerically through
their realizations, not here.
"""

import cmath
import functools
import math
import re

from .errors import (
    DimensionMismatchError,
    DomainError,
    NotPolynomialError,
    ParseError,
)
from .words import NCPolynomial

# rcond threshold below which an inverse node is declared out of domain
SINGULARITY_RCOND = 1e-12


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class _Node:
    """An AST node of one field, the single name in ``__slots__``, as a
    frozen dataclass would be, without importing ``dataclasses``: equal to
    a node of the same class with an equal field, hashable, refusing
    assignment with AttributeError, and copied and pickled by value."""

    __slots__ = ()

    def __init__(self, field):
        object.__setattr__(self, self.__slots__[0], field)

    def _field(self):
        return getattr(self, self.__slots__[0])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._field() == other._field()

    def __hash__(self):
        return hash((self._field(),))

    def __repr__(self):
        return f"{type(self).__name__}({self.__slots__[0]}={self._field()!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a node through __init__, as slot state
        # would be restored through the refusing __setattr__
        return type(self), (self._field(),)


class Scalar(_Node):
    __slots__ = ("value",)      # complex


class Variable(_Node):
    __slots__ = ("index",)      # int


class Sum(_Node):
    __slots__ = ("terms",)      # tuple of nodes


class Product(_Node):
    __slots__ = ("factors",)    # tuple of nodes


class Inverse(_Node):
    __slots__ = ("operand",)


class Negate(_Node):
    __slots__ = ("operand",)


def scalar(value):
    """Scalar node with canonical sign; negatives wrap in Negate."""
    value = complex(value)
    if value == 0:
        return Scalar(0j)
    if value.real < 0 or (value.real == 0 and value.imag < 0):
        return Negate(Scalar(-value))
    return Scalar(value)


def negate(node):
    if isinstance(node, Negate):
        return node.operand
    if isinstance(node, Scalar):
        return scalar(-node.value)
    return Negate(node)


def make_sum(terms):
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        raise ValueError("empty sum")
    if len(flat) == 1:
        return flat[0]
    if all(isinstance(t, (Scalar, Negate)) and _scalar_value(t) is not None
           for t in flat):
        return _folded_scalar(sum(_scalar_value(t) for t in flat))
    return Sum(tuple(flat))


def make_product(factors):
    flat = []
    sign = 1
    for f in factors:
        if isinstance(f, Negate):
            sign = -sign
            f = f.operand
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        raise ValueError("empty product")
    if all(isinstance(f, Scalar) for f in flat):
        value = sign
        for f in flat:
            value *= f.value
        return _folded_scalar(value)
    node = flat[0] if len(flat) == 1 else Product(tuple(flat))
    return negate(node) if sign < 0 else node


def _folded_scalar(value):
    """A folded constant that overflows is a parse error, as a literal is."""
    if not cmath.isfinite(value):
        raise ParseError(f"constant overflow: the folded value is {value}")
    return scalar(value)


def _scalar_value(node):
    if isinstance(node, Scalar):
        return node.value
    if isinstance(node, Negate) and isinstance(node.operand, Scalar):
        return -node.operand.value
    return None


def fold(node, scalar, variable, sum, product, negate, inverse):
    """Bottom-up fold of an AST, children left to right: ``sum`` and
    ``product`` take the list of child values, the other operations the
    node's value, index or one child value.  One frame a tree level; the
    parser takes four a nesting level, which adds at most four levels, so
    a tree at the parser's limit can still exhaust the stack below the
    fold: that is a ParseError, as it is in the parser."""
    def rec(a):
        if isinstance(a, Scalar):
            return scalar(a.value)
        if isinstance(a, Variable):
            return variable(a.index)
        if isinstance(a, Sum):
            return sum(list(map(rec, a.terms)))
        if isinstance(a, Product):
            return product(list(map(rec, a.factors)))
        if isinstance(a, Negate):
            return negate(rec(a.operand))
        if isinstance(a, Inverse):
            return inverse(rec(a.operand))
        raise TypeError(f"not an AST node: {a!r}")

    try:
        return rec(node)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def normalize(node):
    """Rebuild an arbitrary AST through the normalizing constructors."""
    return fold(node, scalar, Variable, make_sum, make_product, negate,
                Inverse)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*^()])"
    r")"
)


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if match.group("num") is not None:
            raw = match.group("num")
            imaginary = raw.endswith("i")
            body = raw[:-1] if imaginary else raw
            if imaginary and body == "":
                body = "1"
            value = float(body)
            if not cmath.isfinite(value):
                raise ParseError(f"literal overflow in {raw!r}", match.start("num"))
            tokens.append(("num", 1j * value if imaginary else complex(value),
                           match.start("num")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, d):
        self.tokens = tokens
        self.pos = 0
        self.d = d

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def at_op(self, *ops):
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def parse_expr(self):
        terms = []
        if self.at_op("-"):
            self.advance()
            terms.append(negate(self.parse_term()))
        else:
            terms.append(self.parse_term())
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            term = self.parse_term()
            terms.append(term if op == "+" else negate(term))
        return make_sum(terms)

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.at_op("*"):
            self.advance()
            factors.append(self.parse_factor())
        return make_product(factors)

    def parse_factor(self):
        base = self.parse_base()
        if not self.at_op("^"):
            return base
        self.advance()
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num" or value != 1:
                raise ParseError("only exponent -1 is allowed", pos)
            self.advance()
            return Inverse(base)
        if kind != "num":
            raise ParseError("expected an exponent", pos)
        if value.imag != 0 or value.real != int(value.real) or value.real < 0:
            raise ParseError("exponent must be a nonnegative integer", pos)
        self.advance()
        k = int(value.real)
        if k == 0:
            return scalar(1.0)
        return make_product([base] * k)

    def parse_base(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "name":
            self.advance()
            if value == "inv":
                self.expect_op("(")
                node = self.parse_expr()
                self.expect_op(")")
                return Inverse(node)
            match = re.fullmatch(r"z(\d+)", value)
            if match is None:
                raise ParseError(f"unknown name {value!r}", pos)
            index = int(match.group(1))
            if not (1 <= index <= self.d):
                raise ParseError(
                    f"variable index {index} out of range 1..{self.d}", pos)
            return Variable(index)
        if kind == "num":
            self.advance()
            return scalar(value)
        raise ParseError("expected '(', 'inv', a variable, or a literal", pos)


def parse(text, d):
    """Parse an NC rational expression over z1..zd into a normalized AST."""
    if d < 1:
        raise ParseError("need at least one variable")
    parser = _Parser(tokenize(text), d)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return node


# ---------------------------------------------------------------------------
# Formatter
# ---------------------------------------------------------------------------

def _format_real(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _format_scalar(value):
    if value.imag == 0:
        return _format_real(value.real)
    if value.real == 0:
        return _format_real(value.imag) + "i"
    sign = "+" if value.imag > 0 else "-"
    return f"({_format_real(value.real)}{sign}{_format_real(abs(value.imag))}i)"


def _fmt(node, level):
    """level: 0 = expr, 1 = term, 2 = factor/base.  One frame a tree
    level, as in ``fold``."""
    if isinstance(node, Sum):
        text = ""
        for term in node.terms:
            if isinstance(term, Negate):
                text += " - " + _fmt(term.operand, 1)
            else:
                text += " + " + _fmt(term, 1)
        # the head term keeps only a minus sign, without spaces
        text = text[3:] if text[1] == "+" else "-" + text[3:]
        return f"({text})" if level >= 1 else text
    if isinstance(node, Negate):
        text = "-" + _fmt(node.operand, 1)
        return f"({text})" if level >= 1 else text
    if isinstance(node, Product):
        text = "*".join(map(_fmt, node.factors, [2] * len(node.factors)))
        return f"({text})" if level >= 2 else text
    if isinstance(node, Inverse):
        return f"inv({_fmt(node.operand, 0)})"
    if isinstance(node, Variable):
        return f"z{node.index}"
    if isinstance(node, Scalar):
        return _format_scalar(node.value)
    raise TypeError(f"not an AST node: {node!r}")


def format_expr(node):
    """Deterministic textual form; reparsing yields ``normalize(node)``."""
    return _fmt(normalize(node), 0)


# ---------------------------------------------------------------------------
# Polynomial detection and evaluation
# ---------------------------------------------------------------------------

def max_variable_index(node):
    return fold(node, lambda value: 0, lambda index: index, max, max,
                lambda x: x, lambda x: x)


def as_polynomial(node, d=None):
    """Expand the AST into an NCPolynomial.

    Inverses of subtrees that expand to invertible constants are folded;
    any remaining inverse raises NotPolynomialError.
    """
    if d is None:
        d = max(max_variable_index(node), 1)

    def inverse(p):
        if p.degree == 0 and not p.is_zero():
            return NCPolynomial.constant(d, 1.0 / p.coeff(()))
        raise NotPolynomialError(
            "not a polynomial: expression contains an inverse of a "
            "non-scalar subexpression")

    return fold(node, lambda value: NCPolynomial.constant(d, value),
                lambda index: NCPolynomial.variable(d, index),
                lambda terms: sum(terms, NCPolynomial.zero(d)),
                lambda factors: math.prod(factors, start=NCPolynomial.one(d)),
                lambda p: -p, inverse)


def eval_ast(node, X):
    """Evaluate the expression at a d-tuple of square matrices.

    Raises DomainError when an inverse node meets a numerically singular
    matrix (reciprocal condition number below SINGULARITY_RCOND).
    """
    import numpy as np

    mats = [np.asarray(Xj, dtype=complex) for Xj in X]
    n = mats[0].shape[0]
    for Xj in mats:
        if Xj.shape != (n, n):
            raise DimensionMismatchError("point components must be square and equal-sized")
    eye = np.eye(n, dtype=complex)

    def variable(index):
        if index > len(mats):
            raise DimensionMismatchError(
                f"expression uses z{index} but the point has "
                f"{len(mats)} components")
        return mats[index - 1]

    def inverse(M):
        sing = np.linalg.svd(M, compute_uv=False)
        if sing[0] == 0 or sing[-1] / sing[0] < SINGULARITY_RCOND:
            raise DomainError("not in domain of expression: singular inverse")
        return np.linalg.inv(M)

    return fold(node, lambda value: value * eye, variable,
                lambda terms: sum(terms, np.zeros((n, n), dtype=complex)),
                lambda factors: functools.reduce(np.matmul, factors, eye),
                lambda M: -M, inverse)
