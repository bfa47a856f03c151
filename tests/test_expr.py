import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncfock as nf
from ncfock import expr as ex
from conftest import random_ast, random_point


def test_parse_polynomial_example():
    ast = nf.parse("1 + z1 + z1*z2", 2)
    assert isinstance(ast, ex.Sum)
    assert ast.terms[0] == ex.Scalar(1 + 0j)
    assert ast.terms[1] == ex.Variable(1)
    assert ast.terms[2] == ex.Product((ex.Variable(1), ex.Variable(2)))


def test_ast_nodes_are_frozen_values():
    node = ex.Product((ex.Scalar(2 + 0j), ex.Negate(ex.Variable(1))))
    assert ex.Scalar(1) != ex.Variable(1)
    assert hash(node) == hash(ex.Product((ex.Scalar(2 + 0j),
                                          ex.Negate(ex.Variable(1)))))
    assert repr(ex.Variable(2)) == "Variable(index=2)"
    with pytest.raises(AttributeError):
        node.factors = ()
    for twin in (copy.copy(node), copy.deepcopy(node),
                 pickle.loads(pickle.dumps(node))):
        assert twin == node and type(twin) is ex.Product


def test_parse_nested_inverses():
    ast = nf.parse("z1^3 * inv(z2*inv(z1) + 2) - 7*z2*z1*z2", 2)
    assert isinstance(ast, ex.Sum) and len(ast.terms) == 2
    head, tail = ast.terms
    assert isinstance(head, ex.Product)
    assert head.factors[:3] == (ex.Variable(1),) * 3
    assert isinstance(head.factors[3], ex.Inverse)
    inner = head.factors[3].operand
    assert isinstance(inner, ex.Sum)
    assert any(isinstance(t, ex.Product)
               and any(isinstance(f, ex.Inverse) for f in t.factors)
               for t in inner.terms)
    assert isinstance(tail, ex.Negate)
    # round trip
    assert nf.parse(nf.format_expr(ast), 2) == ast


def test_parse_inverse_of_sum():
    ast = nf.parse("inv(1 - 0.5*z1*z2 - 0.5*z2*z1)", 2)
    assert isinstance(ast, ex.Inverse)
    assert isinstance(ast.operand, ex.Sum)


@pytest.mark.parametrize("text,expected", [
    ("1", ex.Scalar(1 + 0j)),
    ("z1*z2", ex.Product((ex.Variable(1), ex.Variable(2)))),
    ("inv(z1)", ex.Inverse(ex.Variable(1))),
    ("z1^-1", ex.Inverse(ex.Variable(1))),
    ("z1^0", ex.Scalar(1 + 0j)),
    ("z1^2", ex.Product((ex.Variable(1), ex.Variable(1)))),
    ("-z1", ex.Negate(ex.Variable(1))),
    ("2i", ex.Scalar(2j)),
    ("(1+2i)", ex.Scalar(1 + 2j)),
    ("(1-2i)", ex.Scalar(1 - 2j)),
])
def test_parse_small_forms(text, expected):
    assert nf.parse(text, 2) == expected


@pytest.mark.parametrize("text", [
    "z1 +", "inv(z1", "z0", "z3", "1e999", "z1 z2", "q1", "z1^^2", "z1^-2",
])
def test_parse_errors(text):
    with pytest.raises(nf.ParseError):
        nf.parse(text, 2)


def test_parse_error_position():
    with pytest.raises(nf.ParseError) as info:
        nf.parse("z1 + @", 2)
    assert info.value.position == 5


def test_format_round_trip_simple():
    for text in ["1", "z1*z2", "inv(z1)", "1 + z1 + z1*z2",
                 "-z1 + 2*z2", "inv(1 - z1)", "(1+2i)*z1 - z2^2"]:
        ast = nf.parse(text, 2)
        assert nf.parse(nf.format_expr(ast), 2) == ast


def test_format_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        ast = random_ast(rng, d=2, depth=3)
        text = nf.format_expr(ast)
        assert nf.parse(text, 2) == nf.normalize(ast), text


# raw ASTs over z1, z2 built from the node classes, so nested sums,
# products, negations and scalars of every sign and finite size reach
# normalize unfolded
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.builds(complex, _FINITE, _FINITE).map(ex.Scalar)
_ASTS = st.recursive(
    st.builds(ex.Variable, st.integers(1, 2)) | _SCALARS,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(
            lambda terms: ex.Sum(tuple(terms))),
        st.lists(children, min_size=2, max_size=3).map(
            lambda factors: ex.Product(tuple(factors))),
        children.map(ex.Inverse),
        children.map(ex.Negate)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ASTS)
def test_format_parse_round_trip_of_any_ast(ast):
    """Reparsing the formatted text of any AST gives its normal form, or
    folding its constants overflows, which is a parse error."""
    try:
        normal = nf.normalize(ast)
    except nf.ParseError as err:
        assert "constant overflow" in str(err)
        return
    text = nf.format_expr(ast)
    assert nf.parse(text, 2) == normal, text


@pytest.mark.parametrize("text", ["1e200*1e200", "1e308+1e308",
                                  "-1e308 - 1e308", "(1e200+1e200i)*1e200"])
def test_folded_constant_overflow_is_a_parse_error(text):
    with pytest.raises(nf.ParseError, match="constant overflow"):
        nf.parse(text, 1)


def test_fold_rejects_a_non_node():
    with pytest.raises(TypeError, match="not an AST node"):
        nf.normalize(ex.Sum((ex.Variable(1), 2.0)))


def _parses(text):
    try:
        nf.parse(text, 1)
    except nf.ParseError:
        return False
    return True


def test_deep_nesting_is_a_parse_error_and_any_parsed_depth_folds():
    """Nesting past the parser's recursion is a parse error.  The parser
    takes four frames a nesting level, z1*(1 + ...) adds two tree levels
    and each walk takes one frame a tree level, so every walk of the
    deepest such AST that parses returns."""
    with pytest.raises(nf.ParseError, match="nested too deeply"):
        nf.parse("(" * 400 + "z1" + ")" * 400, 1)

    def nested(k):
        return "z1*(1 + " * k + "z1" + ")" * k

    depth = next(k for k in range(400, 0, -10) if _parses(nested(k)))
    assert depth >= 100
    ast = nf.parse(nested(depth), 1)
    # compared as text: dataclass equality takes three frames a level
    text = nf.format_expr(ast)
    assert nf.format_expr(nf.parse(text, 1)) == text
    assert ex.max_variable_index(ast) == 1
    poly = nf.as_polynomial(ast, 1)
    assert poly.degree == depth + 1
    assert poly.allclose(nf.NCPolynomial(1, {(1,) * k: 1.0
                                             for k in range(1, depth + 2)}),
                         tol=0)
    X = [np.array([[0.5]])]
    value = 1.0 - 0.5 ** (depth + 1)
    assert nf.eval_ast(ast, X)[0, 0] == pytest.approx(value)
    assert nf.evaluate(nf.from_ast(ast, 1), X)[0, 0] == pytest.approx(value)


def test_whitespace_insignificant():
    assert nf.parse(" 1+ z1 *z2 ", 2) == nf.parse("1+z1*z2", 2)


def test_as_polynomial_examples(poly_p5, poly_P6):
    p = nf.as_polynomial(nf.parse("1 + z1 + z1*z2", 2), 2)
    assert p.allclose(poly_p5, tol=0) and p.degree == 2
    P = nf.as_polynomial(nf.parse("1 - z1*z2 - z2*z1", 2), 2)
    assert P.allclose(poly_P6, tol=0)
    with pytest.raises(nf.NotPolynomialError):
        nf.as_polynomial(nf.parse("inv(1-z1)", 1), 1)


def test_as_polynomial_scalar_inverse_folding():
    p = nf.as_polynomial(nf.parse("inv(2)*z1 + inv(inv(4))", 1), 1)
    assert p.allclose(nf.NCPolynomial(1, {(1,): 0.5, (): 4.0}), tol=1e-15)


def test_eval_ast_product():
    Z1 = np.array([[0, 1], [0, 0]], dtype=complex)
    Z2 = np.array([[0, 0], [1, 0]], dtype=complex)
    val = nf.eval_ast(nf.parse("z1*z2", 2), [Z1, Z2])
    assert np.allclose(val, [[1, 0], [0, 0]])


def test_eval_ast_inverse_scalar_point():
    val = nf.eval_ast(nf.parse("inv(1 - z1)", 1), [np.zeros((1, 1))])
    assert np.allclose(val, [[1.0]])


def test_eval_ast_fixture_adjoint(fixture_W):
    """P(W)* is diagonal with first entry zero; the printed source value
    diag(0, -1/2, -1/2) carries a sign typo, the matrices force +1/2."""
    val = nf.eval_ast(nf.parse("1 - z1*z2 - z2*z1", 2), fixture_W)
    adj = val.conj().T
    assert np.allclose(adj, np.diag([0.0, 0.5, 0.5]), atol=1e-12)
    assert np.linalg.norm(adj @ np.array([1.0, 0, 0])) <= 1e-12


def test_eval_ast_domain_error():
    with pytest.raises(nf.DomainError):
        nf.eval_ast(nf.parse("inv(z1)", 1), [np.zeros((2, 2))])


def test_eval_homomorphism_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = random_ast(rng, 2, 2)
        b = random_ast(rng, 2, 2)
        X = random_point(rng, 2, 2)
        va, vb = nf.eval_ast(a, X), nf.eval_ast(b, X)
        assert np.allclose(nf.eval_ast(ex.make_sum([a, b]), X), va + vb,
                           atol=1e-10 * (1 + np.linalg.norm(va + vb)))
        assert np.allclose(nf.eval_ast(ex.make_product([a, b]), X), va @ vb,
                           atol=1e-9 * (1 + np.linalg.norm(va) * np.linalg.norm(vb)))


def test_eval_respects_direct_sums_and_similarity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = random_ast(rng, 2, 3)
        X = random_point(rng, 2, 2)
        Y = random_point(rng, 2, 3)
        both = X.direct_sum(Y)
        expected = np.zeros((5, 5), dtype=complex)
        expected[:2, :2] = nf.eval_ast(a, X)
        expected[2:, 2:] = nf.eval_ast(a, Y)
        got = nf.eval_ast(a, both)
        assert np.allclose(got, expected, atol=1e-9 * (1 + np.linalg.norm(expected)))
        S = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        Sinv = np.linalg.inv(S)
        conj_point = nf.MatrixTuple(np.stack([Sinv @ X[j] @ S for j in range(2)]))
        lhs = nf.eval_ast(a, conj_point)
        rhs = Sinv @ nf.eval_ast(a, X) @ S
        assert np.allclose(lhs, rhs, atol=1e-8 * (1 + np.linalg.norm(rhs)))


def test_normalize_idempotent_and_hoisting():
    raw = ex.Product((ex.Scalar(2 + 0j), ex.Negate(ex.Variable(1))))
    norm = nf.normalize(raw)
    assert isinstance(norm, ex.Negate)
    assert nf.normalize(norm) == norm
    text = nf.format_expr(ex.make_sum([ex.Variable(2), raw]))
    assert nf.parse(text, 2) == nf.normalize(ex.make_sum([ex.Variable(2), raw]))
