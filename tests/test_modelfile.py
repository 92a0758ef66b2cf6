import textwrap
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetatrace.engine import expectation
from zetatrace.errors import ParseError, ValidationError
from zetatrace import modelfile
from zetatrace.modelfile import (
    LOWERING_BUDGET,
    MAX_EXPONENT,
    MAX_NESTING,
    lower_ast,
    parse_expression,
    parse_model_text,
    to_model_spec,
)
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL
from zetatrace.terms import thermal_limit

from model_render import render_ast, render_model

ROTOR_FILE = textwrap.dedent(
    """
    # quantum rotor
    [params]
    J = positive
    [axes]
    xi = momentum
    [phase]
    xi^2/(2*J)
    [observable]
    (T*xi/(2*pi*J))^2/(-i*T)
    [expect]
    1/(4*pi^2*J)
    """
)


def test_parse_rotor_file_and_run():
    parsed = parse_model_text(ROTOR_FILE, "rotor")
    spec = to_model_spec(parsed)
    assert [g.axes for g in spec.groups] == [("xi",)]
    res = expectation(spec, "observable", PAPER)
    assert res.value == spec.expected["observable"]
    assert res.value == ParamPoly.monomial(0.25, {"pi": -2, "J": -1})


def test_cubic_phase_rejected_with_validation_error():
    bad = textwrap.dedent(
        """
        [params]
        J = positive
        [axes]
        xi = momentum
        [phase]
        xi^3
        [observable]
        xi^2
        """
    )
    with pytest.raises(ValidationError):
        to_model_spec(parse_model_text(bad, "bad"))


def test_empty_file_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_model_text("", "empty")
    with pytest.raises(ParseError):
        parse_model_text("   \n# only a comment\n", "empty")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_expression("2*(x+", line=7)
    assert err.value.line == 7
    assert "end of expression" in str(err.value)


@pytest.mark.parametrize(
    "text, literal, column",
    [("xi^17", "17", 4), ("2*xi^-100000000", "100000000", 6), ("J^(--40)/xi", "40", 3),
     ("xi^" + "9" * 5000, "9" * 5000, 4)],
    ids=["just-past", "negative-huge", "parenthesised", "5000-digits"],
)
def test_exponent_past_the_bound_is_a_parse_error(text, literal, column):
    with pytest.raises(ParseError) as err:
        parse_expression(text, line=3)
    assert (err.value.line, err.value.column) == (3, column)
    assert str(err.value).startswith(f"exponent {literal} is larger than {MAX_EXPONENT} at line 3")


def test_exponents_up_to_the_bound_parse():
    assert MAX_EXPONENT == 16
    for text in ("xi^16", "xi^-16", "J^(16)*xi^2"):
        parse_expression(text)


@pytest.mark.parametrize(
    "text, column",
    [("(" * 101 + "xi" + ")" * 101, 101), ("-" * 101 + "xi", 101), ("xi" + "^1" * 101, 203),
     ("xi^" + "-" * 100 + "2", 103)],
    ids=["parentheses", "minus-signs", "exponents", "exponent-and-minus-signs"],
)
def test_nesting_past_the_bound_is_a_parse_error(text, column):
    assert MAX_NESTING == 100
    with pytest.raises(ParseError) as err:
        parse_expression(text, line=3)
    assert (err.value.line, err.value.column) == (3, column)
    assert str(err.value).startswith("expression nested deeper than 100 levels at line 3")


def test_nesting_up_to_the_bound_parses():
    for text in ("(" * 100 + "xi" + ")" * 100, "-" * 100 + "xi", "xi^" + "-" * 99 + "2"):
        parse_expression(text)


def test_long_sums_products_and_sections_lower_without_recursing():
    # each is a left-deep chain 1500 nodes deep, past the interpreter's recursion limit
    axes, params = {"xi"}, {"J"}
    total = lower_ast(parse_expression(" + ".join(["xi^2"] * 1499) + " - xi^2"), axes, params)
    assert total.terms == ParamPoly.var("xi", 2, 1498.0).terms
    product = lower_ast(parse_expression("*".join(["J"] * 750) + "/J" * 750), axes, params)
    assert product.terms == ParamPoly.one().terms
    section = parse_model_text(ROTOR_FILE.replace("xi^2/(2*J)", "xi^2/(2*J)\n" * 1500), "long")
    assert lower_ast(section.phase_ast, axes, params).terms == lower_ast(
        parse_expression("1500*xi^2/(2*J)"), axes, params).terms


@pytest.mark.parametrize("phase", [
    "xi^2/(2*J)\n" * 1500,
    " + ".join(["xi^2/(2*J)"] * 750) + " - xi^2*J/J/J" * 750 + "\n",
], ids=["1500-lines", "1500-terms"])
def test_long_sections_render_and_round_trip_without_recursing(phase):
    parsed = parse_model_text(ROTOR_FILE.replace("xi^2/(2*J)\n", phase), "long")
    text = render_model(parsed)
    assert render_model(parse_model_text(text, "long")) == text
    assert text.splitlines()[text.splitlines().index("[phase]") + 1].count("xi^2") == 1500


def test_unknown_symbol_rejected():
    text = ROTOR_FILE.replace("(2*J)", "(2*K)")
    with pytest.raises(ParseError):
        to_model_spec(parse_model_text(text, "bad"))


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        # the observable spans lines 10-11; the unknown symbol sits on line 11
        ("(T*xi/(2*pi*J))^2/(-i*T)", "xi^2\ny*xi", 11, "unknown symbol 'y'"),
        # the phase spans lines 8-9; the bad division sits on line 9
        ("xi^2/(2*J)", "xi^2/(2*J)\nxi/xi", 9, "division by an axis-dependent"),
    ],
    ids=["observable", "phase"],
)
def test_lowering_error_names_the_line_in_the_file(old, new, line, message):
    text = ROTOR_FILE.replace(old, new)
    with pytest.raises(ParseError) as err:
        to_model_spec(parse_model_text(text, "bad"))
    assert err.value.line == line
    assert message in str(err.value)
    assert f"at line {line}" in str(err.value)


LOWERING_FILE = (
    "[params]\nm = positive\nJ = positive\nw = positive\nmu = positive\n"
    "[axes]\nxi = momentum\nx = position\nxi2 = momentum\nx2 = position\n"
    "[phase]\nxi^2/m + x^2\n{phase}\n[observable]\nxi^2\n"
)


@pytest.mark.parametrize(
    "phase",
    [
        "(xi+x+xi2+x2)^16*(xi+x+xi2+x2)^8",
        "(xi+x+m)^16*(xi+x+m)^16*(xi+x+m)^16",
        # no single product is large: the cost is in the number of copies
        " + ".join(["(xi+x+xi2+x2)^16"] * 8),
        # no axis symbol, but 969 parameter monomials on each side
        "(m+J+w+mu)^16*(m+J+w+mu)^16",
    ],
    ids=["product-of-powers", "three-powers", "sum-of-powers", "parameter-powers"],
)
def test_lowering_past_the_budget_is_a_parse_error(phase):
    with pytest.raises(ParseError) as err:
        to_model_spec(parse_model_text(LOWERING_FILE.format(phase=phase), "big"))
    assert err.value.line == 13
    assert str(err.value) == (
        f"expanding this expression takes more than {LOWERING_BUDGET} coefficient products at line 13"
    )


def test_lowering_budget_counts_parameter_monomials_and_each_power_factor(monkeypatch):
    # (xi+x)^2 forms 1*2 + 2*2 products; times (J+m), two monomials, 3*2 more
    node = parse_expression("(xi+x)^2*(J+m)")
    monkeypatch.setattr(modelfile, "LOWERING_BUDGET", 12)
    assert len(lower_ast(node, {"xi", "x"}, {"J", "m"}).terms) == 6
    monkeypatch.setattr(modelfile, "LOWERING_BUDGET", 11)
    with pytest.raises(ParseError, match="more than 11 coefficient products"):
        lower_ast(node, {"xi", "x"}, {"J", "m"})


def test_lowering_within_the_budget_is_the_plain_power():
    base = lower_ast(parse_expression("xi+x+xi2+m/2"), {"xi", "x", "xi2"}, {"m"})
    power = lower_ast(parse_expression("(xi+x+xi2+m/2)^9"), {"xi", "x", "xi2"}, {"m"})
    assert power.terms == (base**9).terms
    inverse = lower_ast(parse_expression("(2*m)^-3"), set(), {"m"})
    assert inverse == ParamPoly.monomial(0.125, {"m": -3})


def test_unknown_section_rejected():
    with pytest.raises(ParseError):
        parse_model_text("[nonsense]\n", "bad")


def test_missing_sections_rejected():
    with pytest.raises(ParseError):
        parse_model_text("[params]\nJ = positive\n", "bad")


def test_bad_axis_kind_rejected():
    text = ROTOR_FILE.replace("momentum", "sideways")
    with pytest.raises(ParseError):
        parse_model_text(text, "bad")


def test_expression_precedence_and_unary_minus():
    node = parse_expression("-a + b*c^2")
    assert render_ast(node) == "-a + b*c^2"
    node2 = parse_expression("(a+b)/(2*c)")
    assert render_ast(node2) == "(a + b)/(2*c)"


def test_render_parse_roundtrip_is_identity():
    parsed = parse_model_text(ROTOR_FILE, "rotor")
    text = render_model(parsed)
    reparsed = parse_model_text(text, "rotor")
    assert render_model(reparsed) == text
    spec_a = to_model_spec(parsed)
    spec_b = to_model_spec(reparsed)
    ra = expectation(spec_a, "observable", PAPER).value
    rb = expectation(spec_b, "observable", PAPER).value
    assert ra == rb


def test_grouped_axes_share_a_regulator():
    text = textwrap.dedent(
        """
        [params]
        m = positive
        [axes]
        u = momentum, g1
        v = momentum, g1
        [phase]
        u^2/2 + v^2/2
        [observable]
        u^2/2 + v^2/2 + m
        """
    )
    spec = to_model_spec(parse_model_text(text, "pair"))
    assert len(spec.groups) == 1
    assert spec.groups[0].axes == ("u", "v")
    res = expectation(spec, "observable", PAPER)
    # two Gaussian axes each contribute a vanishing 1/T piece on top of m
    assert thermal_limit(res.finite_t) == ParamPoly.var("m")


def test_numeric_parameter_value_becomes_default():
    text = ROTOR_FILE.replace("J = positive", "J = 2.5")
    spec = to_model_spec(parse_model_text(text, "rotor"))
    assert spec.default_bindings() == {"J": 2.5}


NEGATIVE_ROTOR = textwrap.dedent(
    """
    [params]
    J = positive
    [axes]
    xi = momentum
    [phase]
    -xi^2/(2*J)
    [observable]
    xi^2/(2*J)
    """
)

SHIFTED_OSCILLATOR = textwrap.dedent(
    """
    [params]
    m = positive
    w = positive
    F = positive
    [axes]
    xi1 = momentum
    x1 = position
    [phase]
    1/2*xi1^2/m + 1/2*m*w^2*x1^2 + w + F*x1
    [observable]
    1/2*xi1^2/m + 1/2*m*w^2*x1^2 + w + F*x1
    """
)


@pytest.mark.parametrize(
    "text, message",
    [
        (NEGATIVE_ROTOR, "quadratic phase coefficient must be positive"),
        (SHIFTED_OSCILLATOR, "complete the square before reducing this axis"),
    ],
    ids=["negative-quadratic", "shifted"],
)
def test_validation_runs_the_reduction_checks(text, message):
    with pytest.raises(ValidationError) as exc:
        to_model_spec(parse_model_text(text, "bad"))
    assert str(exc.value) == message


def test_validation_builds_no_table_rows(monkeypatch):
    from zetatrace import engine

    def refuse(*_args, **_kwargs):
        raise AssertionError("a table row was built during validation")

    monkeypatch.setattr(engine, "gauss_radial", refuse)
    monkeypatch.setattr(engine, "osc_linear", refuse)
    spec = to_model_spec(parse_model_text(ROTOR_FILE, "rotor"))
    assert [g.axes for g in spec.groups] == [("xi",)]


# ---------------------------------------------------------------------------
# Generated families with known answers
# ---------------------------------------------------------------------------

POSITIVE_RATIONALS = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))


def assert_form(poly, want: dict):
    """``poly`` has exactly the monomials of ``want`` (zeros dropped), each to rounding."""
    want = {key: c for key, c in want.items() if c != 0}
    assert set(poly.terms) == set(want)
    for key, c in want.items():
        assert poly.terms[key] == pytest.approx(complex(c), rel=1e-12)


@given(c=POSITIVE_RATIONALS)
def test_rotor_family_matches_its_closed_form_on_both_branches(c):
    """Phase c*xi^2/J gives chi = 1/(8 c pi^2 J), with no finite-T correction."""
    spec = to_model_spec(parse_model_text(
        f"[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\n{c}*xi^2/J\n"
        "[observable]\n(T*xi/(2*pi*J))^2/(-i*T)\n",
        "rotor",
    ))
    closed = {(("J", Fraction(-1)), ("pi", Fraction(-2))): 1 / (8 * c)}
    for branch in (PAPER, PRINCIPAL):
        res = expectation(spec, "observable", branch)
        assert_form(res.value, closed)
        (lead,) = res.finite_t.terms
        assert (lead.t_power, lead.log_power, lead.phase.terms) == (0, 0, {})
        assert_form(lead.coeff, closed)


@given(
    ab=st.lists(st.tuples(POSITIVE_RATIONALS, POSITIVE_RATIONALS), min_size=1, max_size=3),
    c0=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
    grouped=st.booleans(),
)
def test_oscillator_family_matches_its_closed_form_on_both_branches(ab, c0, grouped):
    """k axes sum(a_j xi_j^2/m + b_j m w^2 x_j^2) + c0*w, observable adding i*T*x1^2.

    The value is c0*w + 1/(2 b_1 m w^2); at finite T each of the 2k quadratic
    axes adds -i/(2T), so the decay term is -i*k/T.
    """
    k = len(ab)
    axes = "".join(
        f"xi{j} = momentum{', gp' if grouped else ''}\nx{j} = position{', gx' if grouped else ''}\n"
        for j in range(1, k + 1)
    )
    phase = " + ".join(f"{a}*xi{j}^2/m + {b}*m*w^2*x{j}^2" for j, (a, b) in enumerate(ab, 1))
    phase += f" + {c0}*w"
    spec = to_model_spec(parse_model_text(
        f"[params]\nm = positive\nw = positive\n[axes]\n{axes}[phase]\n{phase}\n"
        f"[observable]\n{phase} + i*T*x1^2\n",
        "oscillator",
    ))
    closed = {(("w", Fraction(1)),): c0, (("m", Fraction(-1)), ("w", Fraction(-2))): 1 / (2 * ab[0][1])}
    for branch in (PAPER, PRINCIPAL):
        res = expectation(spec, "observable", branch)
        assert_form(res.value, closed)
        lead, decay = res.finite_t.terms
        assert [(t.t_power, t.log_power, t.phase.terms) for t in (lead, decay)] == [(0, 0, {}), (-1, 0, {})]
        assert_form(lead.coeff, closed)
        assert_form(decay.coeff, {(): -1j * k})
