import json
import textwrap

import pytest

from zetatrace.cli import main


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


def test_kv_trace_prints_a_huge_trace_in_twelve_digits(tmp_path, capsys):
    path = tmp_path / "amp.kv"
    path.write_text("[kv]\ndimension = 1\nvolume = 1e307\n[term]\ndegree = -3\n")
    code, out, _ = run_cli(capsys, "kv-trace", str(path))
    assert code == 0
    assert out == "trace(0) = 1e+307\nnumeric: 1e+307\n"


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
        (["dirac_fermion", "--dim", "4"], "spatial dimension must be 1, 2 or 3"),
        (["harmonic_oscillator_1d", "--param", "m=abc"], "--param expects name=number, got 'm=abc'"),
        (["harmonic_oscillator_1d", "--param", "foo"], "--param expects name=number, got 'foo'"),
        (["phi4", "--numeric", "--param", "mu=nan"], "--param expects name=number, got 'mu=nan'"),
        (["phi4", "--numeric", "--param", "lambda=1e999"], "got 'lambda=1e999'"),
    ],
    ids=[
        "series-order-1", "dim-without-n", "dim-0", "dirac-dim-4", "param-not-a-number",
        "param-without-value", "param-nan", "param-infinite",
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
