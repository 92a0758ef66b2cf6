"""Mutated kv and model files, and token streams, through ``cli.main``: every run ends in exit 0, 1 or 2.

A run prints its result, or one ``error:`` line and never a traceback: an
input at fault (exit 2) or arithmetic that leaves the float range (exit 1)
is reported, not raised.  A divergent observable is a printed result with
exit code 1.
"""

import contextlib
import io
import itertools
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from zetatrace.cli import main


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_code_and_at_most_one_error_line(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 0:
        assert errors == [] and out
    elif err == "":
        # a divergent observable is a result: printed, with exit code 1
        assert code == 1 and "diverges" in out
    else:
        assert err.count("\n") == 1 and len(errors) == 1


def fuzz_settings(tier1_examples: int) -> settings:
    """Tier-1's fixed examples; the ``deep`` profile's many fresh ones when it is loaded."""
    if settings.default.derandomize:
        return settings(max_examples=tier1_examples, derandomize=True, deadline=5000)
    return settings(deadline=5000)


VALID = {
    "kv": [("dimension", "3"), ("volume", "1.0")],
    "term": [("degree", "-5"), ("log_order", "1"), ("angular", "2")],
}

#: integers at and past the edges the kv arithmetic meets: Gamma(172), 171!,
#: the float range and Python's 4300-digit limit for reading integers
extreme_ints = st.one_of(
    st.integers(-3, 400),
    st.sampled_from([170, 171, 172, 342, 343, 344, 10**8, 10**18, 10**308, 10**4299, -(10**400)]),
    st.integers(-(10**30), 10**30),
)

kv_values = st.one_of(
    extreme_ints.map(str),
    st.tuples(extreme_ints, extreme_ints).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "1e400", "-1e400", "1e-400", "1e4300", "1e99999999", "-1e-99999999", "-3.0000000001",
        "4e-324", "1e308", "-0.0", "0", "1_000", "", "abc", "9" * 5000,
    ]),
    st.text(alphabet="0123456789-+./eE_ ", max_size=12),
)

any_key = st.sampled_from([k for values in VALID.values() for k, _ in values])


@st.composite
def kv_files(draw):
    """A valid file with some values replaced, keys moved, lines dropped or repeated."""
    sections = [("kv", dict(VALID["kv"]))]
    sections += [("term", dict(VALID["term"])) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(1, 4))):
        name, values = draw(st.sampled_from(sections))
        # mostly a key of the section itself, sometimes one it does not know
        own_key = st.sampled_from([k for k, _ in VALID[name]])
        values[draw(st.one_of(own_key, own_key, own_key, any_key))] = draw(kv_values)
    lines = list(itertools.chain.from_iterable(
        [f"[{name}]"] + [f"{k} = {v}" for k, v in values.items()] for name, values in sections
    ))
    if draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    return "\n".join(lines) + "\n"


@fuzz_settings(200)
@given(text=kv_files())
def test_kv_trace_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.kv"
    path.write_text(text)
    code, out, err = run_main(["kv-trace", str(path)])
    assert_exit_code_and_at_most_one_error_line(code, out, err)
    if code == 0:
        trace, numeric = out.splitlines()
        assert trace.startswith("trace(0) = ") and numeric.startswith("numeric: ")


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

#: the README's rotor and the golden mixed-T oscillator
MODEL_FILES = [
    "[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\nxi^2/(2*J)\n"
    "[observable]\n(T*xi/(2*pi*J))^2/(-i*T)\n[expect]\n1/(4*pi^2*J)\n",
    (Path(__file__).resolve().parent / "golden" / "oscillator_mixed_t.zt").read_text(),
]

#: a line splits into these tokens and back: names, numbers, operators,
#: brackets, the '=' and ',' of declarations, and runs of blanks
_ZT_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+\.?\d*|\.\d+|\s+|.")

zt_names = st.sampled_from([
    # declared, reserved, section and axis-kind words, unknown
    "xi", "x", "J", "m", "w", "i", "pi", "T", "positive", "momentum", "position", "field",
    "gp", "gx", "phase", "y", "e308", "_",
])
zt_numbers = st.one_of(
    # exponents at and past MAX_EXPONENT, and values at the edges of the float range
    st.sampled_from(["0", "0.0", "1", "2", "16", "17", "1e308", "1e-300", "4e-324", "1e400",
                     "inf", "nan", ".5", "3.", "99999999", "9" * 400, "1/3"]),
    st.integers(-20, 20).map(str),
)
zt_operators = st.sampled_from(
    # MAX_NESTING is 100
    list("+-*/^()[]=,#. ") + ["^16", "^-16", "^17", "\n", "\t", "(" * 101, "-" * 101]
)
zt_tokens = st.one_of(zt_names, zt_numbers, zt_operators)


def same_kind(token: str):
    """Tokens of the kind of ``token``: a mutation that keeps the line well formed more often."""
    if token[0].isalpha() or token[0] == "_":
        return zt_names
    return zt_numbers if token[0].isdigit() or token[0] == "." else zt_operators


section_lines = st.sampled_from([
    "[params]", "[axes]", "[phase]", "[observable]", "[expect]", "[nonsense]", "[phase",
    "J = positive", "J = 0", "m = 1e308", "y = momentum", "xi = momentum, gp", "z = field",
    "xi^2", "x^2", "xi*x", "xi^2/(2*J) + x", "(xi+x+T)^16", "w/T", "i*T*x^2", "0", "",
])


@st.composite
def model_files(draw):
    """A valid file with tokens replaced, inserted or deleted and lines dropped or added."""
    lines = draw(st.sampled_from(MODEL_FILES)).splitlines()
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 2, 3, 4]))):
        op = draw(st.sampled_from(["replace", "replace", "insert", "delete", "line"]))
        if op == "line" or not lines:
            if lines and draw(st.booleans()):
                del lines[draw(st.integers(0, len(lines) - 1))]
            else:
                lines.insert(draw(st.integers(0, len(lines))), draw(section_lines))
            continue
        row = draw(st.integers(0, len(lines) - 1))
        tokens = _ZT_TOKEN.findall(lines[row])
        at = draw(st.integers(0, len(tokens)))
        if op == "insert":
            tokens.insert(at, draw(zt_tokens))
        elif at < len(tokens):
            kind = same_kind(tokens[at])
            tokens[at:at + 1] = [draw(st.one_of(kind, zt_tokens))] if op == "replace" else []
        lines[row] = "".join(tokens)
    return "\n".join(lines) + "\n"


@fuzz_settings(150)
@given(text=model_files(), numeric=st.booleans())
def test_model_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory, text, numeric):
    path = tmp_path_factory.getbasetemp() / "fuzz.zt"
    path.write_text(text)
    code, out, err = run_main(["model", str(path)] + (["--numeric"] if numeric else []))
    assert_exit_code_and_at_most_one_error_line(code, out, err)


# ---------------------------------------------------------------------------
# token streams, fed to both commands
# ---------------------------------------------------------------------------

#: numbers with fractions, exponents and underscores, well formed or not
stream_numbers = st.one_of(
    st.tuples(
        st.sampled_from(["0", "1", "2", "12", "1_0", "1__0", "_1", "1_", "9" * 20]),
        st.sampled_from(["", ".", ".5", ".0_1", "._5"]),
        st.sampled_from(["", "e5", "E-3", "e+16", "e400", "e-400", "e", "e_1", "e1_0"]),
    ).map("".join),
    zt_numbers,
)
#: the section headers of both formats, whole and broken
stream_headers = st.sampled_from(["[params]", "[axes]", "[phase]", "[observable]", "[expect]", "[kv]", "[term]",
                                  "[", "]", "[[term]]"])
#: the keys of both formats, the words a value can be, and names
stream_words = st.one_of(
    st.sampled_from(["dimension", "volume", "degree", "log_order", "angular", "positive", "momentum",
                     "position", "field"]),
    zt_names,
)
#: the pieces both file formats are made of
stream_pieces = st.one_of(
    stream_headers,
    stream_words,
    st.just("="),
    stream_numbers,
    st.sampled_from(list("+-*/^(),.")),
    st.sampled_from(["#", "# note", "#[kv]", "#="]),
    st.sampled_from([" ", "\n", "\t", "\r\n"]),
)
stream_lines = st.lists(st.tuples(stream_pieces, st.sampled_from(["", " "])), max_size=8).map(
    lambda pieces: "".join(piece + gap for piece, gap in pieces)
)
#: a line that reads "word = tokens", as a declaration or a kv entry does
stream_declarations = st.tuples(stream_words, st.sampled_from(["=", " = "]), stream_lines).map("".join)


@st.composite
def token_streams(draw):
    """Token lines under section headers, and sometimes before the first one."""
    lines = [draw(stream_lines)] if draw(st.integers(0, 3)) == 0 else []
    for _ in range(draw(st.integers(0, 4))):
        lines.append(draw(stream_headers))
        lines += draw(st.lists(st.one_of(stream_declarations, stream_lines), max_size=4))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@fuzz_settings(80)
@given(text=token_streams())
def test_a_token_stream_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory, text):
    for command, name in (("model", "stream.zt"), ("kv-trace", "stream.kv")):
        path = tmp_path_factory.getbasetemp() / name
        path.write_text(text)
        assert_exit_code_and_at_most_one_error_line(*run_main([command, str(path)]))
