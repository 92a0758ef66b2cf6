"""Mutated kv files through ``cli.main``: every run ends in exit 0, 1 or 2.

A run prints the trace and its numeric value, or one ``error:`` line and
never a traceback: an input at fault (exit 2) or arithmetic that leaves the
float range (exit 1) is reported, not raised.
"""

import contextlib
import io
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from zetatrace.cli import main

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


@settings(max_examples=200, derandomize=True, deadline=5000)
@given(text=kv_files())
def test_kv_trace_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.kv"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["kv-trace", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code == 0:
        assert errors == []
        trace, numeric = out.getvalue().splitlines()
        assert trace.startswith("trace(0) = ") and numeric.startswith("numeric: ")
    else:
        assert err.getvalue().count("\n") == 1 and len(errors) == 1
