import textwrap

import pytest

from zetatrace.engine import expectation
from zetatrace.errors import ParseError, ValidationError
from zetatrace.modelfile import (
    MAX_EXPONENT,
    parse_expression,
    parse_model_text,
    render_ast,
    render_model,
    to_model_spec,
)
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER
from zetatrace.terms import thermal_limit

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
    assert [a.name for a in spec.axes] == ["xi"]
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
    assert [a.name for a in spec.axes] == ["xi"]
