"""Expression kernel: parsing, canonical arithmetic, calculus."""

from fractions import Fraction

import pytest

from noether import Expr, JetSpace, ParseError, parse

from util import deadline, rand_expr


def test_parse_literal_quadratic(ode):
    e = parse("1/2*y'^2", ode)
    yp = ode.lookup("y'")
    assert e.term_map() == {((yp, 2),): Fraction(1, 2)}


def test_parse_zero(ode):
    assert parse("0", ode).term_map() == {}
    assert parse("0", ode).is_zero


def test_parse_field_lagrangian(pde):
    e = parse("1/12*u_x^4 + 1/2*u_t^2", pde)
    u_x = pde.lookup("u_x")
    u_t = pde.lookup("u_t")
    assert e.term_map() == {((u_x, 4),): Fraction(1, 12),
                            ((u_t, 2),): Fraction(1, 2)}


def test_parse_division_by_constant(pde, ode):
    assert parse("u_x^4/12", pde) == parse("1/12*u_x^4", pde)
    assert parse("y/2", ode) == parse("1/2*y", ode)


def test_parse_dot_notation():
    s = JetSpace(["t"], ["q"], max_order=3)
    assert parse("qdot", s) == Expr.variable(s.lookup("q'"))
    assert parse("qddot", s) == Expr.variable(s.lookup("q''"))
    assert parse("qdddot", s) == Expr.variable(s.lookup("q'''"))


def test_parse_underscore_orderings(pde):
    assert parse("u_xt", pde) == parse("u_tx", pde)
    assert parse("u_ttx", pde) == Expr.variable(pde.lookup("u_ttx"))


def test_parse_unsplittable_suffix_quickly():
    """Every split of a long suffix that ends in no independent is refused
    in linear time; a search that backtracks took seconds at 43 letters."""
    space = JetSpace(["x", "y", "yx"], ["u"])
    name = "u_" + "yx" * 40 + "z"
    with deadline(2), pytest.raises(ParseError) as err:
        parse(name, space)
    assert f"unknown variable {name!r}" in str(err.value)


def test_parse_unary_minus(ode):
    assert parse("-y'", ode) == -parse("y'", ode)
    assert parse("-y' + y", ode) == parse("y", ode) - parse("y'", ode)


@pytest.mark.parametrize("bad, fragment", [
    ("z + 1", "unknown variable"),
    ("y^x", "exponent"),
    ("y^(2)", "exponent"),
    ("1/y", "rational constants"),
    ("y/0", "division by zero"),
    ("y + ", "unexpected"),
    ("2y", "unexpected"),
    ("(y", "expected ')'"),
])
def test_parse_errors(ode, bad, fragment):
    with pytest.raises(ParseError) as err:
        parse(bad, ode)
    assert fragment in str(err.value)


def test_parse_error_reports_position(ode):
    with pytest.raises(ParseError) as err:
        parse("y' + zz", ode)
    assert err.value.position == 5


@pytest.mark.parametrize("text, order", [
    ("1 + y" + "'" * 7, 7), ("1 + y" + "d" * 6 + "dot", 7),
    ("1 + y_" + "x" * 7, 7), ("1 + y_" + "x" * 3000, 3000)])
def test_parse_beyond_working_order(ode, text, order):
    # Prime, dot and underscore names share one check, with one message.
    with pytest.raises(ParseError) as err:
        parse(text, ode)
    assert str(err.value) == (f"derivative order {order} exceeds working "
                              f"order 6 (at position 4)")
    assert err.value.position == 4


def test_add_cancellation(ode):
    yp = parse("y'", ode)
    assert (yp + (-yp)).is_zero


def test_mul_and_distribution(ode):
    yp = parse("y'", ode)
    assert yp * yp == parse("y'^2", ode)
    assert parse("y - x*y'", ode) * yp == parse("y*y' - x*y'^2", ode)


def test_power_cases(pde, ode):
    assert parse("u_x", pde) ** 1 == parse("u_x", pde)
    assert parse("y'", ode) ** 0 == Expr.one()
    assert (parse("x", ode) + parse("y", ode)) ** 2 == \
        parse("x^2 + 2*x*y + y^2", ode)


def test_partial_examples(ode, pde):
    s = JetSpace(["t"], ["q"], max_order=2)
    qdot = s.lookup("q'")
    assert parse("1/2*q'^2", s).partial(qdot) == Expr.variable(qdot)
    assert parse("1/12*u_x^4", pde).partial(pde.lookup("u_x")) == \
        parse("1/3*u_x^3", pde)
    q = JetSpace(["x"], ["y", "q"]).lookup("q")
    assert parse("x*y", JetSpace(["x"], ["y", "q"])).partial(q).is_zero


def test_substitute_on_shell(pde):
    u_tt = pde.lookup("u_tt")
    e = parse("u_tt + u_x^2*u_xx", pde)
    assert e.substitute({u_tt: parse("-u_x^2*u_xx", pde)}).is_zero


def test_substitute_identity_and_zero(ode):
    e = parse("x*y''''", ode)
    assert e.substitute({}) == e
    assert e.substitute({ode.lookup("y''''"): Expr.zero()}).is_zero


def test_substitute_cyclic_rejected(ode):
    x, y = ode.lookup("x"), ode.lookup("y")
    with pytest.raises(ValueError, match="cyclic"):
        parse("x*y", ode).substitute({x: parse("y", ode),
                                      y: parse("x", ode)})


def test_ring_axioms_property(rng, ode):
    vars = [ode.lookup(n) for n in ("x", "y", "y'")]
    for _ in range(40):
        a = rand_expr(rng, vars)
        b = rand_expr(rng, vars)
        c = rand_expr(rng, vars)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_partial_product_rule_property(rng, ode):
    vars = [ode.lookup(n) for n in ("x", "y", "y'")]
    for _ in range(40):
        a = rand_expr(rng, vars)
        b = rand_expr(rng, vars)
        v = rng.choice(vars)
        assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)
        assert (a + b).partial(v) == a.partial(v) + b.partial(v)


def test_print_parse_fixed_point(rng, ode, pde):
    vars = [ode.lookup(n) for n in ("x", "y", "y'", "y''")]
    for _ in range(40):
        e = rand_expr(rng, vars)
        assert parse(str(e), ode) == e
    pvars = [pde.lookup(n) for n in ("t", "x", "u", "u_t", "u_x", "u_tx")]
    for _ in range(40):
        e = rand_expr(rng, pvars)
        assert parse(str(e), pde) == e


def test_exact_evaluate(ode):
    e = parse("y - x*y'", ode)
    value = e.evaluate({ode.lookup("x"): 1, ode.lookup("y"): 3,
                        ode.lookup("y'"): 1})
    assert value == Fraction(2)


def test_canonical_equality_is_semantic(ode):
    left = parse("y' + y'", ode)
    right = parse("2*y'", ode)
    assert left == right
    assert hash(left) == hash(right)


def test_parse_nesting_limit(ode):
    from noether.parsing import MAX_NESTING
    deep = "(" * MAX_NESTING + "y" + ")" * MAX_NESTING
    assert parse(deep, ode) == parse("y", ode)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" + deep + ")", ode)


def test_parse_expansion_bounds(ode):
    """A product or power is refused at its operator when its expansion
    could exceed MAX_TERMS terms or MAX_BITS-bit coefficients."""
    from noether.parsing import MAX_BITS, MAX_TERMS
    assert (MAX_TERMS, MAX_BITS) == (1000, 4096)
    for text, at in (("(y + x)^3000", 7), ("(y + x + y')^150", 12),
                     ("(y + x + y')^44", 12), ("2^4096*y", 1),
                     ("(1/2*y'^2)^10000000000", 10), ("3^2000*3^2000", 6)):
        with pytest.raises(ParseError, match="expansion could exceed") as info:
            parse(text, ode)
        assert info.value.position == at
    assert len(parse("(y + x + y')^43", ode)) == 990      # C(45, 2)
    assert len(parse("y^123456789012345678901234567890", ode)) == 1
    forty = " + ".join(f"x^{i}" for i in range(40))
    assert len(parse(f"({forty})*({' + '.join(f'y^{j}' for j in range(25))})",
                     ode)) == 1000
    with pytest.raises(ParseError, match="1000 terms"):
        parse(f"({forty})*({' + '.join(f'y^{j}' for j in range(26))})", ode)
    with pytest.raises(ParseError, match="5000 digits exceeds 4096 bits"):
        parse("9" * 5000 + "*y", ode)


def test_parse_work_bound(ode):
    """Terms times coefficient bits is bounded as well, so that the powers
    just inside every bound still expand quickly.  (y + x)^999 is inside
    the terms and bits bounds and took about a second."""
    from noether.parsing import MAX_WORK
    assert MAX_WORK == 2 ** 17
    with deadline(2):
        assert len(parse("(y + x)^361", ode)) == 362     # 362 * 362 terms*bits
        assert len(parse("(3*y + 2*x)^208", ode)) == 209
        assert len(parse("(y + x + y')^43", ode)) == 990
        for text, at in (("(y + x)^362", 7), ("(y + x)^999", 7),
                         ("(1 + y)^999", 7), ("(3*y + 2*x)^209", 11)):
            with pytest.raises(ParseError,
                               match="terms times coefficient bits") as info:
                parse(text, ode)
            assert info.value.position == at


def test_parse_work_bound_is_per_text(ode):
    """The work bound covers the whole text, so ten powers each just
    inside it are refused at the second one instead of expanding in
    about a second."""
    power = "(y + x + y')^43"
    with deadline(1):
        assert len(parse(power, ode)) == 990
        with pytest.raises(ParseError, match="bits in total") as info:
            parse(" + ".join([power] * 10), ode)
    assert info.value.position == len(power) + 3 + power.index("^")


# -- stored coefficient types ---------------------------------------------------


def _only_coeff(e):
    (coeff,) = e.term_map().values()
    return coeff


@pytest.mark.parametrize("given, stored", [(True, 1), (Fraction(4, 2), 2)])
def test_integral_constant_stored_as_int(given, stored):
    coeff = _only_coeff(Expr.constant(given))
    assert type(coeff) is int and coeff == stored


def test_integral_sum_of_fractions_stored_as_int(ode):
    half = Expr.variable(ode.lookup("y")) / 2
    coeff = _only_coeff(half + half)
    assert type(coeff) is int and coeff == 1


def test_division_by_int_is_exact(ode):
    coeff = _only_coeff(Expr.variable(ode.lookup("y")) / 2)
    assert type(coeff) is Fraction and coeff == Fraction(1, 2)


def test_float_coefficient_refused():
    with pytest.raises(TypeError):
        Expr.constant(1.5)


def test_constant_value_of_zero_is_int():
    value = Expr.zero().constant_value()
    assert type(value) is int and value == 0
