import fcntl
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from zetatrace.cli import build_parser, cmd_run, main
from zetatrace.models import RegistryEntry


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_harmonic_oscillator_text(capsys):
    code, out, _ = run_cli(capsys, "run", "harmonic_oscillator_1d")
    assert code == 0
    assert "⟨H⟩ = (1/2)·hbar·omega" in out


def test_run_boson_json(capsys):
    code, out, _ = run_cli(capsys, "run", "schwinger_boson_mass", "--emit", "json")
    assert code == 0
    record = json.loads(out.strip())
    assert record["model"] == "schwinger_boson_mass"
    assert record["observable"] == "m_g^2"
    assert record["value"] == "e^2 * pi^-1"
    assert record["branch"] == "paper"
    assert list(record) == ["model", "observable", "value", "branch", "series_order"]


def test_json_output_is_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "run", "schwinger_boson_mass", "--emit", "json")
    _, out2, _ = run_cli(capsys, "run", "schwinger_boson_mass", "--emit", "json")
    assert out1 == out2


def test_run_phi4_numeric(capsys):
    code, out, _ = run_cli(
        capsys, "run", "phi4", "--param", "mu=1", "--param", "lambda=6", "--numeric"
    )
    assert code == 0
    assert "minimum" in out
    assert "1.41421" in out
    assert "numeric fallback" not in out


def numeric_values(capsys, *argv):
    """The numbers that ``--numeric`` prints, once from text and once from JSON output."""
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    code, lines, _ = run_cli(capsys, *argv, "--emit", "json")
    assert code == 0
    from_text = [line.rpartition("  = ")[2] for line in text.splitlines()[1:]]
    from_json = [json.loads(line)["numeric_value"] for line in lines.splitlines()]
    return from_text, from_json


def test_run_phi4_numeric_prints_the_same_values_in_text_and_json(capsys):
    from_text, from_json = numeric_values(
        capsys, "run", "phi4", "--numeric", "--param", "mu=1.3", "--param", "lambda=2.7"
    )
    assert from_text == from_json == [
        "0", "1.9379255805", "-1.9379255805", "1.9379255805", "-1.9379255805", "1.83847763109",
    ]


def test_run_with_trace_shows_derivation_chain(capsys):
    code, out, _ = run_cli(capsys, "run", "topological_oscillator", "--trace")
    assert code == 0
    assert "gauge:" in out
    assert "reduce:" in out
    assert "thermal limit" in out


def test_run_phi4_numeric_at_extreme_bindings_exits_zero(capsys):
    # -6 mu^2/lambda leaves the float range, but the closed forms evaluate to finite numbers
    from_text, from_json = numeric_values(
        capsys, "run", "phi4", "--numeric", "--param", "mu=1e150", "--param", "lambda=1e-300"
    )
    assert from_text == from_json == [
        "0", "2.44948974278e+300", "-2.44948974278e+300",
        "2.44948974278e+300", "-2.44948974278e+300", "1.41421356237e+150",
    ]


@pytest.mark.parametrize("emit", ["text", "json"])
def test_run_numeric_overflowing_power_exits_one(capsys, emit):
    # e^2 = 1e400 leaves the float range while the closed form is evaluated: an error line,
    # not a traceback
    code, out, err = run_cli(
        capsys, "run", "schwinger_boson_mass", "--numeric", "--param", "e=1e200", "--emit", emit
    )
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == ["error: e^2 overflows at e = 1e+200"]


@pytest.mark.parametrize("emit", ["text", "json"])
def test_run_phi4_numeric_overflowing_product_exits_one(capsys, emit):
    # mu = 1e200 and lambda^-1/2 = 1e150 are in range, the minimum 2.4e350 is not: nothing is
    # printed before the error line
    code, out, err = run_cli(
        capsys, "run", "phi4", "--numeric", "--param", "mu=1e200", "--param", "lambda=1e-300",
        "--emit", emit,
    )
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        "error: 2.44948974278 * lambda^-1/2 * mu overflows at lambda = 1e-300, mu = 1e+200"
    ]


def test_run_unknown_model_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "nonexistent_model")
    assert code == 1
    assert "error" in err


def test_run_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "phi4", "--branch", "sideways"])
    assert exc.value.code == 2


def test_check_all_models_pass(capsys):
    code, out, _ = run_cli(capsys, "check")
    assert code == 0
    assert "7/7 models passing" in out


def test_check_principal_branch_identical_pass_set(capsys):
    code, out, _ = run_cli(capsys, "check", "--branch", "principal")
    assert code == 0
    assert "7/7 models passing" in out


def test_check_detects_corrupted_expected_value(capsys, monkeypatch):
    from zetatrace import models
    from zetatrace.params import ParamPoly

    broken = models.build_model("schwinger_free")
    broken.expected = {"H_m": ParamPoly.var("m").scale(3)}
    entry = models.RegistryEntry(lambda **kw: broken, "broken", "corrupted")
    monkeypatch.setitem(models.REGISTRY, "schwinger_free", entry)
    code, out, _ = run_cli(capsys, "check")
    assert code == 1
    assert "FAIL" in out


def test_list_models(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    assert "harmonic_oscillator_1d" in out


def test_model_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "rotor.zt"
    path.write_text(
        textwrap.dedent(
            """
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
    )
    code, out, _ = run_cli(capsys, "model", str(path))
    assert code == 0
    assert "1/4" in out and "J" in out



def test_model_file_with_a_wrong_expect_exits_one(tmp_path, capsys):
    # the rotor's value is (1/4)·J^-1·pi^-2; an [expect] without J^-1 fails the run
    rotor = (
        "[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\nxi^2/(2*J)\n"
        "[observable]\n(T*xi/(2*pi*J))^2/(-i*T)\n"
    )
    plain, wrong = tmp_path / "rotor.zt", tmp_path / "wrong.zt"
    plain.write_text(rotor)
    wrong.write_text(rotor + "[expect]\n1/(4*pi^2)\n")
    _, plain_out, _ = run_cli(capsys, "model", str(plain))
    code, out, err = run_cli(capsys, "model", str(wrong))
    assert code == 1
    assert out == plain_out  # stdout is the result alone
    assert err == "error: observable: expected 1/4 * pi^-2, got 1/4 * J^-1 * pi^-2\n"


def test_model_file_with_t_in_expect_is_a_parse_error(tmp_path, capsys):
    # the expected value is the T -> infinity limit: T in [expect] names the line, exit 2
    path = tmp_path / "rotor.zt"
    path.write_text(
        "[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\nxi^2/(2*J)\n"
        "[observable]\n(T*xi/(2*pi*J))^2/(-i*T)\n[expect]\n1/(4*pi^2*J)\nT/J\n"
    )
    code, out, err = run_cli(capsys, "model", str(path))
    assert code == 2 and out == ""
    assert err == "error: an expected value cannot depend on T at line 11\n"


def test_axes_line_with_a_third_field_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "rotor.zt"
    path.write_text(
        "[params]\nJ = positive\n[axes]\nxi = momentum, g1, g2, whatever\n[phase]\nxi^2/(2*J)\n"
        "[observable]\nxi^2/(2*J)\n"
    )
    code, out, err = run_cli(capsys, "model", str(path))
    assert code == 2 and out == ""
    assert err == (
        "error: unexpected field 'g2'; expected 'name = kind[, group]' at line 4, column 20\n"
    )

def test_model_file_divergent_observable_exits_one(tmp_path, capsys):
    path = tmp_path / "grower.zt"
    path.write_text(
        "[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\nxi^2/(2*J)\n"
        "[observable]\n(T*xi)^2\n"
    )
    code, out, _ = run_cli(capsys, "model", str(path))
    assert code == 1
    assert "diverges" in out


def test_model_file_with_a_negative_quadratic_phase_exits_two(tmp_path, capsys):
    # rejected at validation, not when the reduction reaches the axis
    path = tmp_path / "negative.zt"
    path.write_text(
        "[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\n-xi^2/(2*J)\n"
        "[observable]\nxi^2/(2*J)\n"
    )
    code, out, err = run_cli(capsys, "model", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: quadratic phase coefficient must be positive\n"


def linear_phase_file(path, k):
    """k ungrouped axes, phase x0 + ... + x(k-1) and observable x0^2 + ... + x(k-1)^2: k 2^k branches."""
    axes = "".join(f"x{j} = position\n" for j in range(k))
    phase = " + ".join(f"x{j}" for j in range(k))
    observable = " + ".join(f"x{j}^2" for j in range(k))
    path.write_text(f"[params]\n[axes]\n{axes}[phase]\n{phase}\n[observable]\n{observable}\n")
    return path


@pytest.fixture
def five_seconds():
    def expire(*_args):
        raise TimeoutError("took more than 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("k, branches", [(9, 4608), (16, 1048576)])
def test_a_reduction_past_the_branch_bound_exits_two_before_it_builds_a_branch(tmp_path, capsys, five_seconds,
                                                                               k, branches):
    # before the bound, k = 16 ran for minutes; k = 9 took 1.7 s and k = 10 93 MB
    code, out, err = run_cli(capsys, "model", str(linear_phase_file(tmp_path / "linear.zt", k)))
    assert code == 2
    assert out == ""
    assert err == f"error: one side has {branches} branches, more than the 4096 allowed\n"


def test_the_largest_reduction_under_the_branch_bound_still_runs(tmp_path, capsys):
    # k = 8: 2048 numerator branches
    code, out, _ = run_cli(capsys, "model", str(linear_phase_file(tmp_path / "linear.zt", 8)))
    assert code == 0
    assert out.splitlines()[0] == "⟨observable⟩ = 0"


OSCILLATOR_PHASE = "xi^2/(2*m) + m*w^2*x^2/2 + w/2"


def test_model_numeric_keeps_an_imaginary_part_below_one(tmp_path, capsys):
    # <i H> = (1/2i)·w is 5e-21i at w = 1e-20: small, but all of the value
    path = tmp_path / "osc.zt"
    path.write_text(
        "[params]\nm = positive\nw = positive\n[axes]\nx = position\nxi = momentum\n"
        f"[phase]\n{OSCILLATOR_PHASE}\n[observable]\ni*({OSCILLATOR_PHASE})\n"
    )
    argv = ("model", str(path), "--param", "w=1e-20", "--param", "m=1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1] == "  numeric: 0+5e-21i"
    code, out, _ = run_cli(capsys, *argv, "--emit", "json")
    assert code == 0
    assert json.loads(out)["numeric_value"] == "0+5e-21i"


def test_numeric_round_off_on_a_real_value_prints_as_real():
    from zetatrace.cli import _fmt_number

    assert _fmt_number(complex(0.5, 1e-17)) == "0.5"
    assert _fmt_number(complex(1e-20, 1e-33)) == "1e-20"
    assert _fmt_number(complex(0, 0)) == "0"


def test_an_ungrouped_axis_gets_its_own_regulator(tmp_path, capsys):
    # xi names the group g_x; the ungrouped x must not join it
    path = tmp_path / "osc.zt"
    path.write_text(
        "[params]\nm = positive\nw = positive\n[axes]\nxi = momentum, g_x\nx = position\n"
        f"[phase]\n{OSCILLATOR_PHASE}\n[observable]\n{OSCILLATOR_PHASE}\n"
    )
    code, out, _ = run_cli(capsys, "model", str(path), "--trace")
    assert code == 0
    assert [line for line in out.splitlines() if "gauge:" in line] == [
        "  | gauge: |x|^(1*z2) |xi|^(1*z1)"
    ]


def test_model_file_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.zt"
    path.write_text("[phase]\nxi +* 2\n")
    code, _, err = run_cli(capsys, "model", str(path))
    assert code == 2
    assert "error" in err


def test_model_file_registers_for_listing(tmp_path, capsys):
    path = tmp_path / "rotor.zt"
    path.write_text(
        "[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\nxi^2/(2*J)\n"
        "[observable]\nxi^2/(2*J)\n"
    )
    code, out, _ = run_cli(capsys, "model", str(path), "--list")
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    assert "rotor" in out


def test_kv_trace_file(tmp_path, capsys):
    path = tmp_path / "amp.kv"
    path.write_text(
        textwrap.dedent(
            """
            [kv]
            dimension = 1
            volume = 1.0
            [term]
            degree = -3
            log_order = 0
            angular = 1
            """
        )
    )
    code, out, _ = run_cli(capsys, "kv-trace", str(path))
    assert code == 0
    assert "trace(0) = 1" in out


def test_kv_trace_bad_file_exits_two(tmp_path, capsys):
    path = tmp_path / "amp.kv"
    path.write_text("[kv]\nwhatever = 3\n")
    code, _, err = run_cli(capsys, "kv-trace", str(path))
    assert code == 2


def test_kv_trace_critical_degree_exits_one(tmp_path, capsys):
    path = tmp_path / "amp.kv"
    path.write_text("[kv]\ndimension = 2\n[term]\ndegree = -2\n")
    code, _, err = run_cli(capsys, "kv-trace", str(path))
    assert code == 1
    assert "critical" in err


def test_kv_trace_overflowing_amplitude_exits_one(tmp_path, capsys):
    # the volume times the angular factor leaves the float range: the trace
    # is not 0, it cannot be computed in floats
    path = tmp_path / "amp.kv"
    path.write_text("[kv]\ndimension = 1\nvolume = 1e308\n[term]\ndegree = -3\nangular = 10\n")
    code, out, err = run_cli(capsys, "kv-trace", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err


@pytest.mark.parametrize(
    "kv, fragment",
    [
        ("[kv]\ndimension = 400\n[term]\ndegree = -3\n", "Gamma(200) leaves the float range"),
        # the sphere volume's Gamma is rejected before any factorial is formed
        ("[kv]\ndimension = 100000000\n[term]\ndegree = -3\n",
         "Gamma(50000000) leaves the float range"),
        ("[kv]\ndimension = 3\n[term]\ndegree = -5\nlog_order = 100000\n",
         "term 1: l!/(N + d)^(l+1) leaves the float range (N = 3, l = 100000)"),
        ("[kv]\ndimension = 3\n[term]\ndegree = 1e400\n",
         "term 1: l!/(N + d)^(l+1) leaves the float range (N = 3, l = 0)"),
        # (N + d)^61 underflows to 0, so the factor overflows
        ("[kv]\ndimension = 3\n[term]\ndegree = -3.0000000001\nlog_order = 60\n",
         "term 1: l!/(N + d)^(l+1) leaves the float range (N = 3, l = 60)"),
        # the closed form is finite, its value 8.5e307 * pi is not
        ("[kv]\ndimension = 2\nvolume = 1.7e308\n[term]\ndegree = -4\nangular = 0.5\n",
         "8.5e+307 * pi overflows at pi = 3.14159"),
        # 1e-300 * 1e-300 rounds to 0: the trace is not 0, it cannot be computed in floats
        ("[kv]\ndimension = 1\nvolume = 1e-300\n[term]\ndegree = -3\nangular = 1e-300\n",
         "term 1: vol(X) * angular * l!/(N + d)^(l+1) underflows to 0"),
    ],
    ids=[
        "dimension-400", "dimension-1e8", "log-order-1e5", "degree-1e400", "power-underflow",
        "numeric-value", "coefficient-underflow",
    ],
)
def test_kv_trace_out_of_range_arithmetic_exits_one(tmp_path, capsys, kv, fragment):
    path = tmp_path / "amp.kv"
    path.write_text(kv)
    code, out, err = run_cli(capsys, "kv-trace", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {fragment}\n"


def test_kv_trace_prints_a_huge_trace_in_twelve_digits(tmp_path, capsys):
    path = tmp_path / "amp.kv"
    path.write_text("[kv]\ndimension = 1\nvolume = 1e307\n[term]\ndegree = -3\n")
    code, out, _ = run_cli(capsys, "kv-trace", str(path))
    assert code == 0
    assert out == "trace(0) = 1e+307\nnumeric: 1e+307\n"


def test_kv_trace_prints_a_tiny_trace_in_twelve_digits(tmp_path, capsys):
    path = tmp_path / "amp.kv"
    path.write_text("[kv]\ndimension = 1\nvolume = 1e-13\n[term]\ndegree = -3\n")
    code, out, _ = run_cli(capsys, "kv-trace", str(path))
    assert code == 0
    assert out == "trace(0) = 1e-13\nnumeric: 1e-13\n"


def assert_input_error(code, err, fragment):
    """Exit 2 with a single 'error: ...' line naming the fault, no traceback."""
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert fragment in lines[0]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["harmonic_oscillator_1d", "--series-order", "1"], "--series-order must be at least 2"),
        (["harmonic_oscillator_1d", "--dim", "2"], "takes no override n"),
        (["harmonic_oscillator_nd", "--dim", "0"], "--dim must be at least 1"),
        (["harmonic_oscillator_nd", "--dim", "65"], "--dim must be at most 64, got 65"),
        (["harmonic_oscillator_nd", "--dim", "2000"], "--dim must be at most 64, got 2000"),
        (["dirac_fermion", "--series-order", "257"], "--series-order must be at most 256, got 257"),
        (["dirac_fermion", "--series-order", "20000"], "--series-order must be at most 256"),
        (["dirac_fermion", "--dim", "4"], "spatial dimension must be 1, 2 or 3"),
        (["harmonic_oscillator_1d", "--param", "m=abc"], "--param expects name=number, got 'm=abc'"),
        (["harmonic_oscillator_1d", "--param", "foo"], "--param expects name=number, got 'foo'"),
        (["phi4", "--numeric", "--param", "mu=nan"], "--param expects name=number, got 'mu=nan'"),
        (["phi4", "--numeric", "--param", "lambda=1e999"], "got 'lambda=1e999'"),
        (["topological_oscillator", "--param", "J=-1"],
         "--param J must not be negative (J is declared positive), got -1"),
        (["phi4", "--numeric", "--param", "mu=-0.5"], "--param mu must not be negative"),
        (["topological_oscillator", "--numeric", "--param", "J=0"],
         "--param J must not be zero (J is declared positive), got 0"),
        (["harmonic_oscillator_1d", "--numeric", "--param", "omega=0"],
         "--param omega must not be zero"),
        # pi is a constant, not a parameter: binding it would print 1/(4*9) for 1/(4*pi^2)
        (["topological_oscillator", "--numeric", "--param", "pi=3"],
         "--param pi: topological_oscillator declares no such parameter (declared: J)"),
        (["harmonic_oscillator_1d", "--param", "omgea=2"],
         "--param omgea: harmonic_oscillator_1d declares no such parameter (declared: m, hbar, omega)"),
    ],
    ids=[
        "series-order-1", "dim-without-n", "dim-0", "dim-65", "dim-2000", "series-order-257",
        "series-order-20000", "dirac-dim-4", "param-not-a-number",
        "param-without-value", "param-nan", "param-infinite", "param-negative",
        "param-negative-potential", "param-zero", "param-zero-omega", "param-pi", "param-misspelt",
    ],
)
def test_run_bad_flag_value_exits_two(capsys, argv, fragment):
    code, out, err = run_cli(capsys, "run", *argv)
    assert out == ""
    assert_input_error(code, err, fragment)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[kv]\ndimension = abc\n", "dimension must be a number, got 'abc' at line 2"),
        ("[kv]\ndimension = 1\n[term]\ndegree = x\n", "degree must be a number, got 'x' at line 4"),
    ],
    ids=["dimension", "degree"],
)
def test_kv_trace_non_numeric_value_exits_two(tmp_path, capsys, text, fragment):
    path = tmp_path / "amp.kv"
    path.write_text(text)
    code, _, err = run_cli(capsys, "kv-trace", str(path))
    assert_input_error(code, err, fragment)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[kv]\ndimension = 1\nvolume = nan\n", "volume must be finite, got 'nan' at line 3"),
        ("[kv]\ndimension = 1\n[term]\ndegree = -3\nangular = inf\n",
         "angular must be finite, got 'inf' at line 5"),
        ("[kv]\ndimension = 1\nvolume = -inf\n", "volume must be finite, got '-inf' at line 3"),
    ],
    ids=["volume-nan", "angular-inf", "volume-minus-inf"],
)
def test_kv_trace_non_finite_value_exits_two(tmp_path, capsys, text, fragment):
    path = tmp_path / "amp.kv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "kv-trace", str(path))
    assert out == ""
    assert_input_error(code, err, fragment)


@pytest.mark.parametrize("command", ["kv-trace", "model"])
def test_missing_input_file_exits_two(tmp_path, capsys, command):
    path = tmp_path / "absent.txt"
    code, _, err = run_cli(capsys, command, str(path))
    assert_input_error(code, err, f"cannot read {path}")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[kv]\ndimension = 1\n[term]\ndegree = -3\nlog_order = -1\n",
         "log_order must be at least 0, got '-1' at line 5"),
        ("[kv]\ndimension = 0\n", "dimension must be at least 1, got '0' at line 2"),
    ],
    ids=["log-order-negative", "dimension-0"],
)
def test_kv_trace_value_below_its_minimum_exits_two(tmp_path, capsys, text, fragment):
    path = tmp_path / "amp.kv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "kv-trace", str(path))
    assert out == ""
    assert_input_error(code, err, fragment)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[kv]\ndimension = 1\n[term]\ndegree = -3\ndegree = -5\n",
         "duplicate key 'degree' in [term] (first set on line 4) at line 5"),
        ("[kv]\ndimension = 1\nvolume = 2\ndimension = 3\n",
         "duplicate key 'dimension' in [kv] (first set on line 2) at line 4"),
        ("[kv]\ndimension = 1\n[term]\ndegree = -3\n[kv]\nvolume = 2\n",
         "duplicate section [kv] (first on line 1) at line 5"),
    ],
    ids=["term-key", "kv-key", "kv-section"],
)
def test_kv_trace_repeated_key_or_section_exits_two(tmp_path, capsys, text, fragment):
    path = tmp_path / "amp.kv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "kv-trace", str(path))
    assert out == ""
    assert_input_error(code, err, fragment)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[kv\ndimension = 1\n", "unterminated section header at line 1"),
        ("[kv]\ndimension = 1\n[[term]]]\ndegree = -3\n", "unknown section [[term]]] at line 3"),
    ],
    ids=["missing-bracket", "extra-brackets"],
)
def test_kv_trace_section_header_must_be_one_bracketed_name(tmp_path, capsys, text, fragment):
    path = tmp_path / "amp.kv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "kv-trace", str(path))
    assert out == ""
    assert_input_error(code, err, fragment)


@pytest.mark.parametrize(
    "text, where",
    [
        ("[kv\n", "at line 1, column 3"),
        ("dimension = 1\n", "at line 1, column 1"),
        ("[kv]\n[terms]\n", "at line 2, column 2"),
        ("[kv]\ndimension = 1\nspin = 2\n", "at line 3, column 1"),
        ("[kv]\ndimension =  abc # comment\n", "at line 2, column 14"),
        ("[kv]\ndimension = 1\n[term]\ndegree = -3\nlog_order = -1\n", "at line 5, column 13"),
    ],
    ids=["header", "before-header", "section", "key", "value", "minimum"],
)
def test_kv_trace_errors_give_the_column_as_model_files_do(tmp_path, capsys, text, where):
    path = tmp_path / "amp.kv"
    path.write_text(text)
    code, _, err = run_cli(capsys, "kv-trace", str(path))
    assert code == 2 and err.rstrip().endswith(where)


def test_kv_trace_repeats_term_sections(tmp_path, capsys):
    path = tmp_path / "amp.kv"
    path.write_text("[kv]\ndimension = 1\n[term]\ndegree = -3\n[term]\ndegree = -3\n")
    code, out, _ = run_cli(capsys, "kv-trace", str(path))
    assert code == 0
    assert out.splitlines()[0] == "trace(0) = 2"


# the README's rotor: <observable> = 1/(4 pi^2 J)
ROTOR = (
    "[params]\nJ = 1\n[axes]\nxi = momentum\n[phase]\nxi^2/(2*J)\n"
    "[observable]\n(T*xi/(2*pi*J))^2/(-i*T)\n"
)


@pytest.mark.parametrize(
    "text, fragment",
    [
        (ROTOR.replace("xi = momentum\n", "xi = momentum\nxi = momentum\n"),
         "duplicate name 'xi' (first declared on line 4) at line 5"),
        (ROTOR.replace("J = 1\n", "J = 1\nJ = 3\n"),
         "duplicate name 'J' (first declared on line 2) at line 3"),
        (ROTOR.replace("J = 1\n", "J = 1\nxi = positive\n"),
         "duplicate name 'xi' (first declared on line 3) at line 5"),
        (ROTOR.replace("J = 1\n", "J = 1\npi = 3\n"), "'pi' is reserved and cannot be declared at line 3"),
        (ROTOR.replace("J = 1\n", "J = 1\ni = 2\n"), "'i' is reserved and cannot be declared at line 3"),
        (ROTOR.replace("xi = momentum\n", "xi = momentum\nT = position\n"),
         "'T' is reserved and cannot be declared at line 5"),
        (ROTOR.replace("J = 1", "J = inf"), "J must be finite, got 'inf' at line 2"),
        (ROTOR.replace("J = 1", "J = nan"), "J must be finite, got 'nan' at line 2"),
        (ROTOR.replace("J = 1", "J = 1e999"), "J must be finite, got '1e999' at line 2"),
        (ROTOR.replace("J = 1", "J = -1"), "J must be positive, got '-1' at line 2, column 5"),
        (ROTOR.replace("J = 1", "J = 0.0"), "J must be positive, got '0.0' at line 2, column 5"),
        # lowering xi^100000000 would multiply out 10^8 factors
        (ROTOR.replace("(T*xi/(2*pi*J))^2/(-i*T)", "xi^100000000"),
         "exponent 100000000 is larger than 16 at line 8, column 4"),
        # each power is in bound; nine of them take more products than lowering may form
        (ROTOR.replace("(T*xi/(2*pi*J))^2/(-i*T)", " + ".join(["(xi+J+2)^16"] * 9)),
         "expanding this expression takes more than 20000 coefficient products at line 8"),
        # the parser recurses on each level
        (ROTOR.replace("(T*xi/(2*pi*J))^2/(-i*T)", "(" * 3000 + "xi" + ")" * 3000),
         "expression nested deeper than 100 levels at line 8, column 101"),
    ],
    ids=[
        "axis-twice", "param-twice", "param-and-axis", "reserved-pi", "reserved-i", "reserved-T",
        "param-inf", "param-nan", "param-overflowing", "param-negative", "param-zero",
        "exponent-past-bound", "lowering-past-budget", "nesting-past-bound",
    ],
)
def test_model_file_declaration_faults_exit_two(tmp_path, capsys, text, fragment):
    path = tmp_path / "rotor.zt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "model", str(path), "--numeric")
    assert out == ""
    assert_input_error(code, err, fragment)


def test_model_rejects_a_negative_param_flag(tmp_path, capsys):
    path = tmp_path / "rotor.zt"
    path.write_text(ROTOR)
    code, out, err = run_cli(capsys, "model", str(path), "--param", "J=-2")
    assert out == ""
    assert_input_error(code, err, "--param J must not be negative (J is declared positive), got -2")


@pytest.mark.parametrize("emit", ["text", "json"])
def test_model_numeric_names_the_parameter_without_a_value(tmp_path, capsys, emit):
    path = tmp_path / "rotor.zt"
    path.write_text(ROTOR.replace("J = 1", "J = positive"))
    code, out, err = run_cli(capsys, "model", str(path), "--numeric", "--emit", emit)
    assert out == ""
    assert_input_error(code, err, "parameter J has no value; bind it with --param J=<number>")


@pytest.mark.parametrize("emit, want", [
    ("text", "<observable> diverges: quotient diverges like z^-1 at fixed T\n"),
    ("json", json.dumps({
        "model": "divergent", "observable": "observable",
        "value": "divergent: quotient diverges like z^-1 at fixed T",
        "branch": "paper", "series_order": 4,
    }) + "\n"),
])
def test_run_prints_a_divergent_result_and_exits_one(capsys, divergent_inverse_momentum, emit, want):
    registry = {"divergent": RegistryEntry(lambda: divergent_inverse_momentum, "custom model", "custom")}
    code = cmd_run(build_parser().parse_args(["run", "divergent", "--emit", emit]), registry)
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, want, "")


def test_a_closed_stdout_ends_without_a_traceback():
    # about 38 KB of trace through a pipe that holds one 4 KB page: the write after the close fails
    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with os.fdopen(read_end, "rb") as out, subprocess.Popen(
        [sys.executable, "-m", "zetatrace.cli", "run", "harmonic_oscillator_nd", "--dim", "64", "--trace"],
        stdout=write_end, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        os.close(write_end)
        assert out.readline()
        out.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


def test_the_dim_64_trace_prints_repeated_factors_as_powers(capsys):
    # the 64 axes' repeated factors print as powers: each term shows one Gamma,
    # one phase and one power per regulator
    code, out, _ = run_cli(capsys, "run", "harmonic_oscillator_nd", "--dim", "64", "--trace")
    assert code == 0
    assert len(out.encode()) < 40_000  # 38,536 bytes when written
    denominator = next(line for line in out.splitlines() if "| denominator = " in line)
    assert "Gamma(1/128*z1+1/2)^64 * e^(i*pi*(-1/4*z1-16)) * (1/2*hbar*m^-1)^(-1/2*z1-32)" in denominator
    assert denominator.count("Gamma(") == 2
