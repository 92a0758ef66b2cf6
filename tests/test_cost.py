"""Call-count ceilings for the benchmark's ladder: a complexity gate that timing noise cannot blur.

Each count is the number of ``zetatrace`` function calls in one warm
``run_model`` (``cost.src_calls``), pinned as measured on CPython 3.11.  A
count may grow by at most 10 % of its pin.  It is a ratchet: a change that
lowers a count lowers its pin in the same change, and one that raises a pin
says why.

    PYTHONPATH=src python tests/test_cost.py

prints each op's count, its pin and their ratio, and the n = 32 -> 64 slope.
"""

import math

import pytest

from cost import src_calls

#: label -> (model, series order, overrides, calls at the pin)
PINNED = {
    **{f"ho_nd.n{n}": ("harmonic_oscillator_nd", 4, {"n": n}, calls)
       for n, calls in [(1, 1737), (2, 2866), (3, 3931), (4, 4972), (5, 6041), (6, 7138),
                        (16, 19648), (32, 45488), (64, 118672)]},
    **{f"ho_nd_axis.n{n}": ("harmonic_oscillator_nd", 4, {"n": n, "per_axis": True}, calls)
       for n, calls in [(1, 1740), (2, 3603), (3, 5930)]},
    **{f"ho_1d.o{o}": ("harmonic_oscillator_1d", o, {}, calls)
       for o, calls in [(4, 1737), (8, 1737), (16, 1737)]},
    **{f"dirac.o{o}": ("dirac_fermion", o, {"n": 3}, calls)
       for o, calls in [(4, 2935), (8, 3329), (16, 4261)]},
}

#: the log2 growth of the count from n = 32 to n = 64 axes; 1.38 at the pin
SLOPE_CEILING = 1.45


def measure() -> dict[str, int]:
    return {label: src_calls(name, order, **overrides) for label, (name, order, overrides, _) in PINNED.items()}


def slope(counts: dict[str, int]) -> float:
    return math.log2(counts["ho_nd.n64"] / counts["ho_nd.n32"])


@pytest.fixture(scope="module")
def counts():
    return measure()


@pytest.mark.parametrize("label", PINNED)
def test_a_ladder_op_makes_at_most_ten_percent_more_calls_than_its_pin(counts, label):
    pinned = PINNED[label][3]
    assert counts[label] <= 1.10 * pinned, f"{label}: {counts[label]} calls, pinned {pinned}"


def test_the_oscillator_ladder_grows_no_steeper_from_32_to_64_axes(counts):
    assert slope(counts) <= SLOPE_CEILING, slope(counts)


if __name__ == "__main__":
    measured = measure()
    print(f"{'op':<16}{'calls':>8}{'pin':>8}{'ratio':>8}")
    for label, (*_, pinned) in PINNED.items():
        print(f"{label:<16}{measured[label]:>8}{pinned:>8}{measured[label] / pinned:>8.3f}")
    print(f"slope n32 -> n64: {slope(measured):.3f} (ceiling {SLOPE_CEILING})")
