"""Call-count ceilings for the benchmark's ladder: a complexity gate that timing noise cannot blur.

Each count is the number of ``zetatrace`` function calls in one warm
``run_model`` (``cost.src_calls``), pinned as measured on CPython 3.11.  A
count may grow by at most 10 % of its pin.  It is a ratchet: a change that
lowers a count lowers its pin in the same change, and one that raises a pin
says why.
"""

import math

import pytest

from cost import src_calls

#: label -> (model, series order, overrides, calls at the pin)
PINNED = {
    **{f"ho_nd.n{n}": ("harmonic_oscillator_nd", 4, {"n": n}, calls)
       for n, calls in [(1, 1755), (2, 2892), (3, 3963), (4, 5010), (5, 6085), (6, 7188),
                        (16, 19758), (32, 45694), (64, 119070)]},
    **{f"ho_nd_axis.n{n}": ("harmonic_oscillator_nd", 4, {"n": n, "per_axis": True}, calls)
       for n, calls in [(1, 1758), (2, 3647), (3, 6008)]},
    **{f"ho_1d.o{o}": ("harmonic_oscillator_1d", o, {}, calls)
       for o, calls in [(4, 1755), (8, 1755), (16, 1749)]},
    **{f"dirac.o{o}": ("dirac_fermion", o, {"n": 3}, calls)
       for o, calls in [(4, 2946), (8, 3340), (16, 4269)]},
}

#: the log2 growth of the count from n = 32 to n = 64 axes; 1.38 at the pin
SLOPE_CEILING = 1.45


@pytest.fixture(scope="module")
def counts():
    return {label: src_calls(name, order, **overrides) for label, (name, order, overrides, _) in PINNED.items()}


@pytest.mark.parametrize("label", PINNED)
def test_a_ladder_op_makes_at_most_ten_percent_more_calls_than_its_pin(counts, label):
    pinned = PINNED[label][3]
    assert counts[label] <= 1.10 * pinned, f"{label}: {counts[label]} calls, pinned {pinned}"


def test_the_oscillator_ladder_grows_no_steeper_from_32_to_64_axes(counts):
    slope = math.log2(counts["ho_nd.n64"] / counts["ho_nd.n32"])
    assert slope <= SLOPE_CEILING, slope
