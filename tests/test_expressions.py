import math
import warnings

import numpy as np
import pytest
from _oracles import expression_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from nilweier import DegeneratePotential, EvalDomain, ParseError, parse_expression
from nilweier.expressions import FUNCTIONS, Expression, _BinOp, _Call, _Neg, _Num, _Var, eval_rows
from nilweier.pipeline import PotentialSpec, translate_potential


def test_constant_fraction():
    e = parse_expression("1/4", "s")
    assert e.eval(0.0) == 0.25


def test_sin_square_plus_one():
    e = parse_expression("sin(s)^2 + 1", "s")
    assert math.isclose(e.eval(0.0), 1.0)
    assert math.isclose(e.eval(0.3), math.sin(0.3) ** 2 + 1)


def test_parse_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_expression("2*", "s")
    assert exc.value.offset == 3
    assert "expected" in str(exc.value)
    with pytest.raises(ParseError) as exc:  # a character no token starts with
        parse_expression("s $ 2", "s")
    assert exc.value.offset == 3 and exc.value.found == "'$'"


def test_trailing_whitespace_ends_the_input():
    assert parse_expression("s + 1   ", "s").eval(2.0) == 3.0


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "(" * n + "s" + ")" * n,
        lambda n: "sin(" * n + "s" + ")" * n,
        lambda n: "s" + "^s" * n,
        lambda n: "s" + "+s" * n,
        lambda n: "-(" * n + "s" + ")" * n,
    ],
    ids=["groups", "function-arguments", "exponents", "operations", "negations"],
)
def test_nesting_past_100_levels_is_rejected(nest):
    """100 levels parse, compile and evaluate; 101 raise ValueError naming
    the source, before any of them could exhaust Python's recursion limit."""
    assert math.isfinite(parse_expression(nest(100), "s").eval(0.5))
    for n in (101, 1200):
        src = nest(n)
        with pytest.raises(ValueError) as exc:
            parse_expression(src, "s")
        assert str(exc.value) == f"expression {src[:40] + '...'!r} nests deeper than 100 levels"


def test_parse_error_wrong_variable():
    with pytest.raises(ParseError) as exc:
        parse_expression("1 + t", "s")
    assert exc.value.offset == 5


def test_unary_minus_binds_before_power():
    # grammar: factor := unary ('^' factor)?  so -2^2 = (-2)^2
    e = parse_expression("-2^2", "s")
    assert e.eval(0.0) == 4.0


def test_power_right_associative():
    e = parse_expression("2^3^2", "s")
    assert e.eval(0.0) == 2.0**9


def test_left_associative_subtraction_division():
    assert parse_expression("8 - 3 - 2", "s").eval(0) == 3.0
    assert parse_expression("8/4/2", "s").eval(0) == 1.0


def test_functions():
    for name, fn in [
        ("sin", math.sin),
        ("cos", math.cos),
        ("tan", math.tan),
        ("sinh", math.sinh),
        ("cosh", math.cosh),
        ("tanh", math.tanh),
        ("exp", math.exp),
    ]:
        e = parse_expression(f"{name}(s)", "s")
        assert math.isclose(e.eval(0.4), fn(0.4), rel_tol=1e-15)
    assert math.isclose(parse_expression("sqrt(s)", "s").eval(2.0), math.sqrt(2))
    assert math.isclose(parse_expression("log(s)", "s").eval(2.0), math.log(2))


def test_eval_domain_errors():
    with pytest.raises(EvalDomain):
        parse_expression("log(s)", "s").eval(-1.0)
    with pytest.raises(EvalDomain):
        parse_expression("sqrt(s)", "s").eval(-1.0)
    with pytest.raises(EvalDomain):
        parse_expression("1/s", "s").eval(0.0)


def test_pretty_roundtrip_idempotent():
    sources = [
        "1/4",
        "sin(s)^2 + 1",
        "-s^2 + 3*s - 1",
        "2^-s",
        "s - (s - s)",
        "s/(2*s + 1)",
        "-(s + 1)*3",
        "s^2^3",
        "cosh(s)*tanh(s) - exp(-s)",
        "0.5e-2 + 1.25E3*s",
    ]
    for src in sources:
        e1 = parse_expression(src, "s")
        p1 = e1.pretty()
        e2 = parse_expression(p1, "s")
        assert e2.pretty() == p1
        assert math.isclose(e1.eval(0.37), e2.eval(0.37), rel_tol=1e-15)


def test_translated_sources_name_their_axis_variable():
    """The translated coefficients' sources, which `EvalDomain` messages
    print, are the pretty forms of their ASTs in s or t."""
    pot = translate_potential("1 + z^2", "sin(-z)", "0.0625", "exp(z)/(1 - z)")
    expected = {
        "f": ("1 + s^2 + sin(-s)", "s"),
        "g": ("1 + t^2 - sin(-t)", "t"),
        "Q": ("4*(0.0625 + exp(s)/(1 - s))", "s"),
        "R": ("4*(0.0625 - exp(t)/(1 - t))", "t"),
    }
    for name, (source, variable) in expected.items():
        e = getattr(pot, name)
        assert (e.source, e.variable, e.pretty()) == (source, variable, source)
        assert repr(e) == f"Expression({source!r}, variable={variable!r})"
    with pytest.raises(EvalDomain) as info:
        pot.R.eval(1.0)
    assert str(info.value).startswith(f"cannot evaluate {expected['R'][0]!r} at t=1.0: ")


def test_number_formats():
    assert parse_expression("1.5e2", "s").eval(0) == 150.0
    assert parse_expression(".5", "s").eval(0) == 0.5
    assert parse_expression("2.", "s").eval(0) == 2.0


# -- row evaluation against the scalar one, bit for bit -----------------------

# leaves that reach signed zeros, overflow and inf on the way
_CONSTANTS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-300, 1e200, 1e308, math.inf]
_TREES = st.recursive(
    st.one_of(
        st.just(_Var()),
        st.just(_Var()),
        st.sampled_from(_CONSTANTS).map(_Num),
        st.floats(-4.0, 4.0).map(_Num),
    ),
    lambda children: st.one_of(
        children.map(_Neg),
        st.builds(_Call, st.sampled_from(sorted(FUNCTIONS)), children),
        st.builds(_BinOp, st.sampled_from("+-*/^"), children, children),
    ),
    max_leaves=10,
)
# rows that mix items where an expression raises (0 for a division, a
# negative for log and sqrt, a large value for exp) with healthy ones
_ROWS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, -2.5, 1e3, -1e3, 1e200]),
        st.floats(-5.0, 5.0),
    ),
    min_size=1,
    max_size=8,
)


def _outcome(fn, *args):
    """fn's value as bytes, or its error's type and message."""
    try:
        return np.asarray(fn(*args), float).tobytes()
    except (EvalDomain, DegeneratePotential) as exc:
        return type(exc), str(exc)


def _quietly(fn, *args):
    """fn's outcome; a numpy warning fails the test, as Python's float
    arithmetic never warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _outcome(fn, *args)


@settings(max_examples=400, deadline=None)
@given(_TREES, _ROWS)
def test_rows_equal_scalar_eval_bit_for_bit(ast, xs):
    """The scalar evaluator reproduces the recursive walk, and the row form
    the loop of scalar evaluations: NaN marks exactly where an item raises,
    the same bits, signs of zeros included, everywhere else, and `eval_rows`
    raises the first item's error."""
    e = Expression(ast, "s", "expr")
    loop = []
    for x in xs:
        try:
            ref = expression_reference(ast, x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            ref = exc
        try:
            value = e.eval(x)
        except EvalDomain as exc:
            value = exc
        if isinstance(ref, Exception):
            assert str(value) == f"cannot evaluate 'expr' at s={x}: {ref}"
        elif not math.isfinite(ref):
            assert str(value) == f"'expr' is not finite at s={x}"
        else:
            assert value.hex() == ref.hex()
        loop.append(value)
    errors = [v for v in loop if isinstance(v, Exception)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = e.rows(np.array(xs))
    assert row.shape == (len(xs),)
    assert np.isnan(row).tolist() == [isinstance(v, Exception) for v in loop]
    values = [v for v in loop if not isinstance(v, Exception)]
    assert row[~np.isnan(row)].tobytes() == np.array(values, float).tobytes()
    if errors:
        assert _quietly(eval_rows, [e], xs) == (EvalDomain, str(errors[0]))
    else:
        assert _quietly(lambda: eval_rows([e], xs)[0]) == row.tobytes()


@settings(max_examples=200, deadline=None)
@given(_TREES, _TREES, _ROWS)
def test_potential_rows_equal_the_scalar_loop(lead, other, xs):
    """`xi_s_rows` and `xi_t_rows` against the loop of `xi_s` and `xi_t`: a
    NaN matrix exactly where the scalar raises, the same bits elsewhere."""
    pot = PotentialSpec(
        f=Expression(lead, "s", "f"),
        g=Expression(lead, "t", "g"),
        Q=Expression(other, "s", "Q"),
        R=Expression(other, "t", "R"),
    )
    for rows, scalar in ((pot.xi_s_rows, pot.xi_s), (pot.xi_t_rows, pot.xi_t)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rows(np.array(xs))
        assert out.shape == (len(xs), 2, 2)
        for x, xi in zip(xs, out):
            expected = _outcome(scalar, x)
            if isinstance(expected, tuple):
                assert np.isnan(xi).all(), x
            else:
                assert xi.tobytes() == expected, x


def test_a_raising_item_is_marked_in_its_row():
    """Rows with raising or vanishing items among healthy ones: NaN marks
    at those items, the scalar values elsewhere, from `eval_rows` the loop's
    first error, and from the scalar read at a marked item its error."""
    # the scalar evaluation raises where a row of IEEE operations would go on
    # to a finite value: 1/(1/0), 1/(1/0) by a constant divisor, 1/inf after
    # an overflowing power, nan^0
    for src, xs, marks, message in (
        ("1/(1/s)", [1.0, 0.0], [False, True], "at s=0.0: float division by zero"),
        ("1/(s/0)", [1.0, 2.0], [True, True], "at s=1.0: float division by zero"),
        ("1/s^400", [0.5, 10.0], [False, True], "at s=10.0: math range error"),
        ("sqrt(s)^0", [1.0, -1.0], [False, True], "at s=-1.0: math domain error"),
    ):
        e = parse_expression(src, "s")
        assert np.isnan(e.rows(np.array(xs))).tolist() == marks
        with pytest.raises(EvalDomain, match=message):
            eval_rows([e], xs)
    e = parse_expression("log(s) + 1/(s - 2)", "s")
    xs = np.array([1.0, 3.0, 2.0, -1.0, 0.5])
    row = e.rows(xs)
    assert np.isnan(row).tolist() == [False, False, True, True, False]
    assert row[[0, 1, 4]].tobytes() == np.array([e.eval(1.0), e.eval(3.0), e.eval(0.5)]).tobytes()
    with pytest.raises(EvalDomain, match=r"at s=2.0: float division by zero"):
        eval_rows([e], xs)
    assert eval_rows([e], xs[:2]).tobytes() == np.array([[e.eval(1.0), e.eval(3.0)]]).tobytes()
    assert np.isnan(parse_expression("log(-1)", "s").rows(np.zeros((2, 3)))).all()  # read once
    pot = PotentialSpec(
        f=parse_expression("s", "s"),
        g=parse_expression("1", "t"),
        Q=parse_expression("sqrt(s)", "s"),
        R=parse_expression("0", "t"),
    )
    for xs, marked, error, message in (
        ([1.0, 1e-13, -1.0], 1e-13, DegeneratePotential, r"f vanishes at s=1e-13"),
        ([1.0, -1.0, 1e-13], -1.0, EvalDomain, r"cannot evaluate 'sqrt\(s\)' at s=-1.0"),
    ):
        out = pot.xi_s_rows(np.array(xs))
        assert np.isnan(out).all(axis=(1, 2)).tolist() == [False, True, True]
        assert out[0].tobytes() == pot.xi_s(1.0).tobytes()
        with pytest.raises(error, match=message):
            pot.xi_s(marked)


def test_eval_rows_raises_the_first_error_of_the_item_loop():
    """`eval_rows` raises the first error of `for x in xs: for e in exprs`:
    Q's where it raises at an earlier item than f, and f's where both raise
    at one item."""
    f = parse_expression("1/(s - 2)", "s")
    Q = parse_expression("sqrt(s)", "s")
    with pytest.raises(EvalDomain, match=r"^cannot evaluate 'sqrt\(s\)' at s=-1.0"):
        eval_rows([f, Q], [1.0, -1.0, 2.0])
    with pytest.raises(EvalDomain, match=r"^cannot evaluate '1/\(s - 2\)' at s=2.0"):
        eval_rows([f, Q], [1.0, 2.0, -1.0])
    with pytest.raises(EvalDomain, match=r"^cannot evaluate '1/\(s - 2\)' at s=2.0"):
        eval_rows([f, parse_expression("log(s - 2)", "s")], [3.0, 2.0])
    xs = [1.0, 3.0, 0.25]
    expected = np.array([[e.eval(x) for x in xs] for e in (f, Q)])
    assert eval_rows([f, Q], xs).tobytes() == expected.tobytes()
