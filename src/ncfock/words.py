"""Words in the free monoid on d letters and finitely supported coefficient maps.

A word is a tuple of 1-based variable indices; the empty tuple is the unit.
The global monomial order used everywhere (coefficient tables, Toeplitz
truncations) is length-then-lexicographic with 1 < 2 < ... < d.
"""

import math
from itertools import product

import numpy as np

from .errors import DimensionMismatchError

EMPTY_WORD = ()


def check_word(word, d):
    """Validate that every letter of ``word`` lies in 1..d."""
    for letter in word:
        if not (1 <= letter <= d):
            raise DimensionMismatchError(
                f"letter {letter} outside 1..{d} in word {word!r}"
            )
    return tuple(word)


def words_of_length(d, length):
    """All words of exactly ``length`` letters, lexicographic."""
    return product(range(1, d + 1), repeat=length)


def words_up_to(d, max_len):
    """All words of length <= max_len in length-then-lex order."""
    for length in range(max_len + 1):
        yield from words_of_length(d, length)


def monomial_count(d, max_len):
    """Number of words of length <= max_len, i.e. (d^(k+1)-1)/(d-1) for d > 1."""
    if d == 1:
        return max_len + 1
    return (d ** (max_len + 1) - 1) // (d - 1)


def _pow2_scaled(v):
    """(v 2^-e, e) with the largest modulus of v 2^-e in [1/2, 1], or (v, 0)
    for a zero or non-finite v.  The scaling is exact, so the norm of v 2^-e
    neither over- nor underflows and, wherever that of v does neither,
    equals it times 2^-e to the bit."""
    top = np.abs(v).max(initial=0.0)
    if not 0.0 < top < math.inf:
        return v, 0
    e = max(math.frexp(top)[1], -1021)    # 2^1021 is the largest factor
    return v * 2.0 ** -e, e


def suffixes(word):
    """All suffixes of a word, the empty word included."""
    return [tuple(word[i:]) for i in range(len(word) + 1)]


class NCPolynomial:
    """Finitely supported map word -> complex coefficient in d NC variables.

    Exact zeros are never stored; ``degree`` is the longest stored word.
    Arithmetic (+, -, *, scalar multiples) follows the free algebra, with
    word concatenation as multiplication.
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d, coeffs=None):
        if d < 1:
            raise DimensionMismatchError("need at least one variable")
        self.d = int(d)
        table = {}
        if coeffs:
            for word, value in coeffs.items():
                word = check_word(word, d)
                value = complex(value)
                if value != 0:
                    table[word] = table.get(word, 0.0) + value
                    if table[word] == 0:
                        del table[word]
        self.coeffs = table

    @classmethod
    def zero(cls, d):
        return cls(d, {})

    @classmethod
    def one(cls, d):
        return cls(d, {EMPTY_WORD: 1.0})

    @classmethod
    def constant(cls, d, value):
        return cls(d, {EMPTY_WORD: value})

    @classmethod
    def variable(cls, d, index):
        check_word((index,), d)
        return cls(d, {(index,): 1.0})

    @property
    def degree(self):
        return max((len(w) for w in self.coeffs), default=0)

    def is_zero(self):
        return not self.coeffs

    def coeff(self, word):
        return self.coeffs.get(tuple(word), 0.0 + 0.0j)

    def support(self):
        """Stored words sorted length-then-lex."""
        return sorted(self.coeffs, key=lambda w: (len(w), w))

    def items(self):
        for word in self.support():
            yield word, self.coeffs[word]

    def _check_same_d(self, other):
        if self.d != other.d:
            raise DimensionMismatchError(
                f"polynomials over {self.d} and {other.d} variables"
            )

    def __add__(self, other):
        if np.isscalar(other):
            other = NCPolynomial.constant(self.d, other)
        self._check_same_d(other)
        table = dict(self.coeffs)
        for word, value in other.coeffs.items():
            table[word] = table.get(word, 0.0) + value
        return NCPolynomial(self.d, table)

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial(self.d, {w: -v for w, v in self.coeffs.items()})

    def __sub__(self, other):
        if np.isscalar(other):
            other = NCPolynomial.constant(self.d, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return NCPolynomial(
                self.d, {w: other * v for w, v in self.coeffs.items()}
            )
        self._check_same_d(other)
        table = {}
        for wa, va in self.coeffs.items():
            for wb, vb in other.coeffs.items():
                word = wa + wb
                table[word] = table.get(word, 0.0) + va * vb
        return NCPolynomial(self.d, table)

    def __rmul__(self, other):
        if np.isscalar(other):
            return self * other
        return NotImplemented

    def conjugate(self):
        """Coefficientwise complex conjugation (the Fock-space conjugation C)."""
        return NCPolynomial(
            self.d, {w: np.conj(v) for w, v in self.coeffs.items()}
        )

    @property
    def pow2(self):
        """(2^-e p, e) with the largest coefficient modulus of 2^-e p in
        [1/2, 1], as ``_pow2_scaled`` gives it: exact, so 2^j p has the
        mantissa 2^-e p of p and the exponent e + j."""
        values, e = _pow2_scaled(np.array(list(self.coeffs.values()),
                                          dtype=complex))
        return NCPolynomial(self.d, dict(zip(self.coeffs, values.tolist()))), e

    def l2_norm(self):
        """The l2 norm of the coefficients, inf where it overflows; the
        coefficients of the mantissa ``pow2`` are summed, so no square
        over- or underflows on its own."""
        mantissa, e = self.pow2
        norm = math.sqrt(sum(abs(v) ** 2 for v in mantissa.coeffs.values()))
        try:
            return math.ldexp(norm, e)
        except OverflowError:
            return math.inf

    def allclose(self, other, tol=1e-10):
        if np.isscalar(other):
            other = NCPolynomial.constant(self.d, other)
        self._check_same_d(other)
        words = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coeff(w) - other.coeff(w)) <= tol for w in words)

    def evaluate(self, X):
        """Evaluate at a d-tuple of n x n matrices, returning an n x n matrix."""
        mats = [np.asarray(Xj, dtype=complex) for Xj in X]
        if len(mats) != self.d:
            raise DimensionMismatchError(
                f"point has {len(mats)} components, polynomial has {self.d}"
            )
        n = mats[0].shape[0]
        out = np.zeros((n, n), dtype=complex)
        cache = {EMPTY_WORD: np.eye(n, dtype=complex)}

        def monomial(word):
            if word in cache:
                return cache[word]
            value = monomial(word[:-1]) @ mats[word[-1] - 1]
            cache[word] = value
            return value

        for word, coeff in self.coeffs.items():
            out += coeff * monomial(word)
        return out

    def to_json_obj(self):
        """Coefficient table as a list of {"word", "re", "im"} records."""
        return [
            {"word": list(w), "re": float(v.real), "im": float(v.imag)}
            for w, v in self.items()
        ]

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for word, value in self.items():
            mono = "*".join(f"z{k}" for k in word) if word else "1"
            parts.append(f"({value:.6g})*{mono}" if word else f"({value:.6g})")
        return " + ".join(parts)
