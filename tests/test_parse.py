"""Grammar round trips and parse errors."""

import pickle
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, strategies as st

import liesym.parse as P
import parse_oracle
from liesym import expr as E
from liesym.catalog import _h_slot, default_order, instantiate, load_catalog, secondary_order
from liesym.expr import format_expr
from liesym.jet import VectorField, prolong, total_derivative
from liesym.parse import (
    Context,
    _MAX_BITS,
    _MEMO,
    _parse,
    ParseError,
    UnknownIdentifierError,
    parse_expression,
    parse_vector_field,
)


def rt(text, ctx=None):
    e = parse_expression(text, ctx)
    again = parse_expression(format_expr(e), ctx)
    assert again == e, f"round trip failed for {text!r}"
    return e


def test_jet_spellings():
    assert rt("y'''") == E.jet(3).as_expr()
    assert parse_expression("y^(2)") == parse_expression("y''")
    assert rt("y^(4)") == E.jet(4).as_expr()
    # parenthesized base means a power of y itself
    assert parse_expression("(y)^(2)") == E.dep().as_expr() ** 2
    assert parse_expression("y^2") == E.dep().as_expr() ** 2


def test_zeroth_jet_spelling_is_y():
    # y^(k) at k = 0 is the 0th derivative y, as a template y^(n-k) reads at
    # n = k, not y^0 = 1; y^(-1) and y^(1/2) stay powers of y
    y = E.dep().as_expr()
    assert rt("y^(0)") == y
    assert parse_expression("y^(n-k)", Context(params={"n": 3, "k": 3})) == y
    assert parse_expression("totd(y^(0))") == total_derivative(y) == E.jet(1).as_expr()
    assert parse_expression("y^(-1)") == y ** -1
    assert parse_expression("y^(1/2)") == y ** F(1, 2)
    _same_as_oracle("y^(0)*y^(2-2) + totd(y^(0))", Context(), False)


def test_worked_parse_example():
    e = rt("3*y''^2/(2*y')")
    expected = F(3, 2) * E.jet(2).as_expr() ** 2 * E.jet(1).as_expr() ** -1
    assert e == expected


def test_rational_power_and_functions():
    e = rt("sqrt(2*y'*y''' - 3*y''^2)")
    u = 2 * E.jet(1).as_expr() * E.jet(3).as_expr() - 3 * E.jet(2).as_expr() ** 2
    assert e == u ** F(1, 2)
    assert rt("arctan(y')^2") == E.transcendental("arctan", E.jet(1).as_expr()) ** 2
    assert parse_expression("exp(0)") == E.ONE
    assert parse_expression("ln(1)").is_zero_expr()


def test_exponent_grammar():
    ctx = Context(params={"a": F(7), "n": F(5)})
    e = parse_expression("(y^(n-1))^((a-n)/(a-n+1))", ctx)
    assert e == E.jet(4).as_expr() ** F(2, 3)
    assert parse_expression("y''^(-8/3)") == E.jet(2).as_expr() ** F(-8, 3)
    # right-associative exponent chain folds
    assert parse_expression("x^2^3") == E.indep().as_expr() ** 8


def test_precedence():
    x = E.indep().as_expr()
    assert parse_expression("-x^2") == -(x ** 2)
    assert parse_expression("1 - 2*x + x^2") == (1 - x) ** 2


def test_factorials():
    assert parse_expression("fact(4)").as_rational() == 24
    assert parse_expression("factprod(3)").as_rational() == 12


@pytest.mark.parametrize("text, offset", [("9^9^9", 1), ("fact(10^7)", 0), ("factprod(10^7)", 0),
                                          ("3^2^20", 1), ("(3*x)^(2^20)", 5), ("2^(-10^400)", 1),
                                          ("fact(10^400)", 0), ("1" * 2467, 0),
                                          ("(2^8000*x + 1)^2", 14), ("(x/3^5000 - y)^(3/2)", 14),
                                          # a sum's content, the lcm of its denominators
                                          ("(x/7^2900 + y/11^2360)^(-1)", 22),
                                          ("x/(x/7^2900 + y/11^2360)", 1),
                                          ("sqrt(x/7^2900 + y/11^2360 + 1/13^2000)", 0),
                                          # a coefficient of the sum's integer body
                                          ("(2^8000*x/3 + y/3^5000)^(-1)", 23),
                                          # a coefficient of a product
                                          ("2^8000*2^8000*x", 6),
                                          ("(2^8000*x+1)*(2^8000*y+1)", 12),
                                          ("2^8000/2^(-8000)", 6)])
def test_exact_values_are_bounded(text, offset):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.offset == offset
    assert str(_MAX_BITS) in str(err.value)


def test_exact_values_up_to_the_bound_parse():
    x = E.indep().as_expr()
    assert parse_expression("2^2^13").as_rational() == 2 ** 8192
    assert parse_expression("(1/2)^(-8192)").as_rational() == 2 ** 8192
    assert parse_expression("x^(10^400)") == x ** (10 ** 400)  # only the exponent is large
    assert parse_expression("1^(10^400)") == E.ONE
    assert parse_expression("factprod(60)").as_rational() > 2 ** 4096
    # a sum under a negative or fractional power keeps its body as a base
    assert parse_expression("(2^8000*x + 1)^(-2)") == (2 ** 8000 * x + 1) ** -2
    assert parse_expression("sqrt(x/7^2900 + y/11^2360)").terms[0][1] == F(1, 7 ** 1450 * 11 ** 1180)
    # a product is bounded by its own coefficients, not by its factors
    assert parse_expression("2^4096*2^4096").as_rational() == 2 ** 8192
    assert parse_expression("2^8000*x/2^8000*2^8000") == 2 ** 8000 * x


@pytest.mark.parametrize("text, offset", [("(x+y+1)^40", 7), ("(x+y+1)^80", 7), ("(x+1)^512", 5),
                                          ("x*(y + y')^(10^400)", 10),
                                          ("(x+y+y'+y''+1)^9", 14)])
def test_powers_of_sums_are_bounded(text, offset):
    # a sum of t terms to the power k expands into up to C(t+k-1, k) terms
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.offset == offset
    assert "512 terms" in str(err.value)


def test_powers_of_sums_up_to_the_bound_parse():
    assert len(parse_expression("(x+y+1)^30").terms) == 496
    assert len(parse_expression("(x+1)^511").terms) == 512
    assert len(parse_expression("(x+y+y'+y''+1)^8").terms) == 495
    # only positive integer powers expand
    for text in ("(x+y+1)^(-80)", "(x+y+1)^(81/2)"):
        assert len(parse_expression(text).terms) == 1


def test_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expression("x*Dx + a*y", Context(params={"a": None}))
    assert err.value.offset == 2
    with pytest.raises(UnknownIdentifierError):
        parse_expression("nope + 1")


def test_jet_order_cap():
    assert parse_expression("y^(12)") == E.jet(12).as_expr()
    with pytest.raises(ParseError):
        parse_expression("y^(13)")


def test_syntax_error_reports_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("x + * y")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse_expression("x + (y")


def test_vector_field_parsing():
    ctx = Context(params={"r": None})
    field = parse_vector_field("x^2*Dx + r*x*y*Dy", ctx)
    x, y = E.indep().as_expr(), E.dep().as_expr()
    assert type(field) is VectorField
    assert field == VectorField(x ** 2, E.param("r").as_expr() * x * y) == tuple(field)
    xi, eta = parse_vector_field("Dx")
    assert xi == E.ONE and eta.is_zero_expr()
    with pytest.raises(ParseError):
        parse_vector_field("Dx*Dy")
    with pytest.raises(UnknownIdentifierError):
        parse_expression("Dx + Dy")  # field terminals are not expression atoms


def test_series_expansion():
    def h(args):
        out = E.ZERO
        for a in args:
            out = out + a
        return out

    ctx = Context(params={"n": F(5)}, functions={"H": h})
    e = parse_expression("H(y, series(k, 2, n-1, y^(k)*y'^(-k)))", ctx)
    y1 = E.jet(1).as_expr()
    expected = E.dep().as_expr() + sum(
        (E.jet(k).as_expr() * y1 ** -k for k in (2, 3, 4)), E.ZERO)
    assert e == expected
    # empty range contributes nothing
    ctx2 = Context(params={"n": F(2)}, functions={"H": h})
    assert parse_expression("H(y', series(k, 2, n-1, y^(k)))", ctx2) == y1


def test_print_parse_round_trip_on_catalog_shapes():
    samples = [
        "y^(4)*y''^(-5/3) - 5/3*y'''^2*y''^(-8/3)",
        "x*y''*(1 + y'^2)^(-3/2) - y'*(1 + y'^2)^(-1/2)",
        "exp(-y'''/6)*y^(4)",
        "2^(1/2)*y + 1/3",
    ]
    for s in samples:
        rt(s)


def test_exponent_is_a_unary_expression():
    x = E.indep().as_expr()
    assert parse_expression("x^4^(1/2)") == x ** 2
    assert parse_expression("x^(-8)^(1/3)") == x ** -2
    assert parse_expression("x^2^-1") == x ** F(1, 2)
    # a minus in the exponent binds like a leading one: -2^2 is -(2^2)
    assert parse_expression("x^-2^2") == x ** -4
    with pytest.raises(ParseError) as err:
        parse_expression("x^2^(1/2)")  # 2^(1/2) is not rational
    assert err.value.offset == 2


def test_numbers_are_decimal_digits():
    assert parse_expression("٣*x") == 3 * E.indep().as_expr()  # ARABIC-INDIC 3
    for text in ("2²", "①"):  # SUPERSCRIPT TWO, CIRCLED ONE
        with pytest.raises(ParseError):
            parse_expression(text)
    with pytest.raises(ParseError) as err:
        parse_expression("x + $")
    assert err.value.offset == 4


def test_offsets_count_characters():
    with pytest.raises(ParseError) as err:
        parse_expression("é + $")  # $ is character 4, byte 5 of the UTF-8 text
    assert err.value.offset == 4
    assert "at character 4" in str(err.value)


@pytest.mark.parametrize("text, offset", [("1 + ln(0)", 4), ("sqrt(-1)", 0), ("0^(-1)", 1),
                                          ("x*totd(y^(12))", 2), ("2 - (1-1)^(-2)", 9)])
def test_kernel_errors_are_parse_errors(text, offset):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.offset == offset


def test_vector_field_coefficients_are_jet_free():
    for text in ("y'*Dx", "Dx + y^(3)*Dy"):
        with pytest.raises(ParseError):
            parse_vector_field(text)


_PIECES = ["x", "y", "y'", "y^(12)", "0", "1", "2", "9", "²", "①", "٣", "é",
           "ln(", "exp(", "sqrt(", "sin(", "totd(", "fact(", "factprod(", "(", ")",
           "+", "-", "*", "/", "^", ",", " ", "Dx", "Dy"]


@given(st.lists(st.sampled_from(_PIECES), max_size=8).map("".join))
@example("9^9^9")
@example("fact(99^9)")
@example("factprod(9^9)")
@example("2^-9^9")
def test_input_errors_are_parse_errors(text):
    for parse, ctx in ((parse_expression, Context()),
                       (parse_vector_field, Context(auto_params=True))):
        try:
            parse(text, ctx)
        except ParseError:
            pass


# -- the parse memo ----------------------------------------------------------------
#
# A parse is kept by its text, its flags and the binding of each name the text
# reads, so a template parsed again under the same bindings of those names is
# the kept expression, and under other bindings is parsed afresh.

def test_contexts_share_no_table():
    # the catalog writes macros into its context as it grounds a record, so
    # a table left at None is a fresh dict however the context is built
    built = [Context(), Context(auto_params=True), Context._make((None, None, None, False)),
             pickle.loads(pickle.dumps(Context())), pickle.loads(pickle.dumps(Context(), 0))]
    tables = [getattr(c, name) for c in built for name in ("params", "macros", "functions")]
    assert all(t == {} for t in tables) and len({id(t) for t in tables}) == len(tables)
    ctx = built[0]
    again = ctx._replace(macros=None)
    assert again.macros == {} and again.macros is not ctx.macros and again.params is ctx.params
    ctx.macros["u"] = E.indep().as_expr()
    assert all(c.macros == {} for c in built[1:] + [again])


def test_cached_template_follows_each_context():
    text = "y^(n) + n*x"
    x = E.indep().as_expr()
    for n in (3, 4, 3):
        e = parse_expression(text, Context(params={"n": F(n)}))
        assert e == E.jet(n).as_expr() + n * x
    kept = parse_expression(text, Context(params={"n": F(3)}))
    # bindings of names the text does not read share the entry
    assert parse_expression(text, Context(params={"n": 3, "k": F(1)}, macros={"u": x})) is kept
    # a macro, a symbolic parameter, auto_params and allow_fields each follow
    y = E.dep().as_expr()
    assert parse_expression("u + n", Context(params={"n": F(2)}, macros={"u": x})) == x + 2
    assert parse_expression("u + n", Context(params={"n": F(2)}, macros={"u": y})) == y + 2
    assert parse_expression("u + n", Context(params={"n": None}, macros={"n": x, "u": y})) == x + y
    assert parse_expression("u + n", Context(params={"u": None, "n": None})) == \
        E.param("u").as_expr() + E.param("n").as_expr()
    assert parse_expression("a*x", Context(auto_params=True)) == E.param("a").as_expr() * x
    with pytest.raises(UnknownIdentifierError):
        parse_expression("a*x")
    assert parse_vector_field("x*Dx") == (x, E.ZERO)
    with pytest.raises(UnknownIdentifierError):
        parse_expression("x*Dx")


@pytest.mark.parametrize("text, error, offset", [("x + nope", UnknownIdentifierError, 4),
                                                 ("x/(y - y)", ParseError, 1),
                                                 ("2^8000*2^8000", ParseError, 6),
                                                 ("x + $", ParseError, 4)])
def test_cached_text_keeps_error_offsets(text, error, offset):
    for _ in range(2):
        with pytest.raises(error) as err:
            parse_expression(text)
        assert err.value.offset == offset


def test_series_on_cached_tokens():
    ctx = Context(params={"n": F(5)}, functions={"H": E.expr_sum})
    text = "H(y, series(k, 2, n-1, y^(k)*y'^(-k)))"
    y1 = E.jet(1).as_expr()
    expected = E.dep().as_expr() + sum((E.jet(k).as_expr() * y1 ** -k for k in (2, 3, 4)), E.ZERO)
    assert parse_expression(text, ctx) == expected == parse_expression(text, ctx)
    ctx3 = Context(params={"n": F(3)}, functions={"H": E.expr_sum})
    assert parse_expression(text, ctx3) == E.dep().as_expr() + E.jet(2).as_expr() * y1 ** -2


def test_memoized_results_are_never_changed():
    text = "y^2/(1 + x) + ln(y)*exp(x)"
    fresh = _parse(text, Context(), False)
    kept = parse_expression(text)
    key, terms = kept._key, kept.terms
    field = parse_vector_field("x^2*Dx + x*y*Dy")
    for _ in range(2):  # the kept results in use downstream
        prolong(VectorField(kept, kept), 3)
        prolong(field, 3)
        E.diff(kept, E.dep())
        E.substitute(kept, {E.indep(): E.ONE})
        total_derivative(kept * kept)
    assert parse_expression(text) is kept and parse_vector_field("x^2*Dx + x*y*Dy") is field
    assert kept._key == key == fresh._key and kept.terms == terms == fresh.terms
    assert field == _parse("x^2*Dx + x*y*Dy", Context(), True)


def test_function_slot_text_is_parsed_each_time():
    calls = []

    def h(args):
        calls.append(args)
        return E.expr_sum(args)

    ctx = Context(functions={"H": h})
    text = "H(y, series(k, 1, 3, y^(k))) + x*y'"
    assert parse_expression(text, ctx) == parse_expression(text, ctx)
    assert len(calls) == 2 and calls[0] == calls[1]
    assert not any(key[0] == text for key in _MEMO)


@pytest.mark.parametrize("text, parse, offset", [("x + nope", parse_expression, 4),
                                                 ("2^8000*2^8000", parse_expression, 6),
                                                 ("x*Dx*Dy", parse_vector_field, 0),
                                                 ("y'*Dx", parse_vector_field, 0)])
def test_failing_text_is_never_memoized(text, parse, offset):
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert not any(key[0] == text for key in _MEMO)


def test_parse_memo_is_bounded():
    texts = [f"x + {k}" for k in range(2500)]
    for text in texts:
        parse_expression(text)
        assert len(_MEMO) <= 1024
    # cleared once it reached the bound: the latest parses are kept
    kept = {key[0] for key in _MEMO}
    assert texts[-1] in kept and texts[0] not in kept
    assert parse_expression(texts[0]) == E.indep().as_expr()


def _outcome(parse):
    """A parse's result, or its error's type, offset and message."""
    try:
        return parse()
    except ParseError as exc:
        return type(exc), exc.offset, str(exc)


_NAMES = ("a", "b", "u", "n")
_VALUES = st.sampled_from([None, F(0), F(1), F(2), F(-1, 2)])
_MACROS = st.sampled_from([E.indep().as_expr(), E.jet(1).as_expr(), E.dep().as_expr() + 1])


@st.composite
def _contexts(draw):
    return Context(params=draw(st.dictionaries(st.sampled_from(_NAMES), _VALUES)),
                   macros=draw(st.dictionaries(st.sampled_from(_NAMES), _MACROS)),
                   functions=draw(st.sampled_from([{}, {"H": E.expr_sum}])),
                   auto_params=draw(st.booleans()))


_LEAVES = st.sampled_from(["x", "y", "y'", "2", "1/3", "a", "b", "u", "n", "c", "H(x, a)"])
_TEXTS = st.recursive(_LEAVES, lambda t: st.one_of(
    st.tuples(t, st.sampled_from(["+", "-", "*", "/", "^"]), t).map(lambda p: f"({p[0]}){p[1]}({p[2]})"),
    t.map(lambda a: f"exp({a})"),
    st.tuples(t, t).map(lambda p: f"({p[0]})*Dx + ({p[1]})*Dy")), max_leaves=6)


@given(_TEXTS, _contexts(), _contexts(), st.booleans())
def test_memoized_parse_matches_a_fresh_parse(text, ctx1, ctx2, allow_fields):
    """The same text under two contexts, memoized: each equals a fresh parse,
    whether the contexts differ in names the text reads or only in others."""
    parse = parse_vector_field if allow_fields else parse_expression
    if allow_fields:
        text = f"({text})*Dx + x*Dy"
    for ctx in (ctx1, ctx2, ctx1):
        assert _outcome(lambda: parse(text, ctx)) == \
            _outcome(lambda: _parse(text, ctx, allow_fields))


# -- the one-pass parser against the expression-valued oracle -----------------------
#
# `_parse` builds raw term dicts over string tokens; `parse_oracle.parse` builds a
# normalized Expr at every step over tokens with offsets.  Both give the same key,
# or the same error type, offset and message.

def _typed(e):
    """e's terms with the type of every coefficient and exponent: a key reads
    the int 2 and Fraction(2) alike, the normal form does not."""
    return tuple((tuple((_typed(b) if type(b) is E.Expr else b, x, type(x)) for b, x in m),
                  c, type(c)) for m, c in e.terms)


def _compared(out):
    """A parse outcome with each expression as its key and typed terms."""
    if isinstance(out, E.Expr):
        return out._key, _typed(out)
    if isinstance(out, tuple) and isinstance(out[0], E.Expr):
        return tuple(map(_compared, out))
    return out


def _same_as_oracle(text, ctx, allow_fields, oracle_ctx=None):
    assert _compared(_outcome(lambda: _parse(text, ctx, allow_fields))) == _compared(
        _outcome(lambda: parse_oracle.parse(text, oracle_ctx or ctx, allow_fields))), text


_GARBAGE = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)


@given(st.one_of(_TEXTS, _GARBAGE), _contexts(), st.booleans())
@example("(x+y+1)^(-1)*(x+y+1)^2/(2*x + 4)^(1/2)", Context(), False)
@example("x - y - x + y - 1/2", Context(), False)
@example("y^(0)*y^(1-1)^2 + y^(-1)", Context(), False)
@example("y'^(-1/3)*(2*x)^3 - sqrt(4*y^2)/(y)^(2)", Context(), False)
@example("é + y'^(1/3) * ٣^(2/3) / $", Context(), False)
def test_one_pass_parse_matches_the_oracle(text, ctx, allow_fields):
    _same_as_oracle(text, ctx, allow_fields)


_NONLINEAR = st.sampled_from(["Dx*Dy", "Dx^2", "Dy^(-1)", "Dx^(1/2)", "exp(Dx)",
                              "(x + Dy)^(-1)*Dx", "sqrt(1 + Dx)*Dy", "1"])


@given(st.lists(st.tuples(_TEXTS, st.sampled_from(["Dx", "Dy"])), min_size=1, max_size=3),
       st.lists(st.tuples(_TEXTS, _NONLINEAR), max_size=1))
@example([("x", "Dx"), ("y", "Dy"), ("-x", "Dx")], [])
@example([("x", "Dx")], [("-x", "Dx*Dy")])
@example([("y'", "Dx")], [])
def test_field_split_matches_the_derivative_split(linear, nonlinear):
    """The one-pass split of linear and nonlinear fields against the split by
    derivatives in Dx and Dy."""
    ctx = Context(params={"n": F(2)}, functions={"H": E.expr_sum}, auto_params=True)
    terms = linear + nonlinear
    _same_as_oracle(" + ".join(f"({a})*{t}" for a, t in terms), ctx, True)


def _workload_parses():
    """(text, context, allow_fields) of each fresh parse that grounding makes:
    every record at its default and secondary order, and each open family at
    orders lo..lo+5 (the benchmark's workloads ground no others)."""
    seen, real = [], P._parse

    def spy(text, ctx, allow_fields):
        seen.append((text, Context(dict(ctx.params), dict(ctx.macros), dict(ctx.functions),
                                   ctx.auto_params), allow_fields))
        return real(text, ctx, allow_fields)

    P._parse = spy
    P._MEMO.clear()
    try:
        for rec in load_catalog():
            lo, hi = rec.data.get("n_range", [1, None])
            orders = {default_order(rec), secondary_order(rec)} - {None}
            for n in sorted(orders | (set(range(lo, lo + 6)) if hi is None else set())):
                instantiate(rec, n=n)
    finally:
        P._parse = real
        P._MEMO.clear()
    return seen


def test_every_workload_parse_matches_the_oracle():
    parses = _workload_parses()
    assert len(parses) > 500 and any(ctx.functions for _, ctx, _ in parses) \
        and any(flag for _, _, flag in parses)
    for text, ctx, allow_fields in parses:
        if ctx.functions:  # a fresh H slot per parse: its placeholders count its calls
            ctx, oracle_ctx = [Context(ctx.params, ctx.macros, {"H": partial(_h_slot, [])})
                               for _ in range(2)]
            _same_as_oracle(text, ctx, allow_fields, oracle_ctx)
        else:
            _same_as_oracle(text, ctx, allow_fields)
