"""Seeded draws: the plain-Python port against numpy's default_rng, and pinned literal draws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pswm.rng import Generator

try:
    import numpy as np
except ImportError:  # the pinned draws below still check the port
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="numpy is the reference")

# Seeds of one, two, three, four and seven 32-bit words (past the four-word pool, the hashing mixes the
# rest in), then any seed below 2**128.
SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**63 + 7, 2**100 + 3, 2**200 + 5]) | st.integers(0, 2**128 - 1)


@needs_numpy
@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, rows=st.integers(1, 6), cols=st.integers(1, 6), n=st.integers(1, 2000),
       low=st.integers(-10, 10), span=st.integers(1, 2**32))
def test_draws_match_numpy(seed, rows, cols, n, low, span):
    # Interleaved, so a 32-bit half left waiting by one kind of draw is checked in the next.
    ours, ref = Generator(seed), np.random.default_rng(seed)
    assert ours.uniform(-0.5, 0.5, rows * cols) == ref.uniform(-0.5, 0.5, size=(rows, cols)).ravel().tolist()
    assert ours.permutation(n) == ref.permutation(n).tolist()
    assert ours.integers(low, low + span) == int(ref.integers(low, low + span))
    assert ours.integers(2, 4) == int(ref.integers(2, 4))
    # The full 32-bit span takes one unmasked 32-bit draw, not Lemire's method.
    assert ours.integers(0, 2**32) == int(ref.integers(0, 2**32))
    assert [ours.integers(1, 6) for _ in range(rows)] == ref.integers(1, 6, size=rows).tolist()
    assert ours.uniform(-1.0, 1.0, cols) == ref.uniform(-1.0, 1.0, size=cols).tolist()
    assert ours.permutation(n) == ref.permutation(n).tolist()


@needs_numpy
@pytest.mark.parametrize("seed", [0, 2**63 + 7])
def test_large_permutation_matches_numpy(seed):
    ours, ref = Generator(seed), np.random.default_rng(seed)
    ours.integers(0, 3)
    ref.integers(0, 3)  # leaves a 32-bit half waiting
    assert ours.permutation(70000) == ref.permutation(70000).tolist()


@pytest.mark.parametrize("seed, uniform, permutation, word, die, last", [
    (0, [0.1369616873214543, -0.2302132862361297], [9, 2, 7, 4, 5, 1, 0, 3, 6, 8], 1191196492, 5,
     0.002738500170148095),
    (42, [0.27395604855596334, -0.06112156024794768], [0, 8, 7, 1, 9, 3, 6, 5, 2, 4], 3081541440, 4,
     0.12811363267554587),
])
def test_pinned_first_draws(seed, uniform, permutation, word, die, last):
    # The values numpy 2.4 draws for these calls; checks the port where numpy is not installed.
    g = Generator(seed)
    assert g.uniform(-0.5, 0.5, 2) == uniform
    assert g.permutation(10) == permutation
    assert g.integers(0, 2**32) == word
    assert g.integers(1, 6) == die
    assert g.uniform(0.0, 1.0, 1) == [last]


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_seed_must_be_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="seed"):
        Generator(seed)


@pytest.mark.parametrize("low, high", [(3, 3), (4, 3), (0, 2**32 + 1)])
def test_integers_outside_the_reproduced_spans_raise(low, high):
    with pytest.raises(ValueError):
        Generator(0).integers(low, high)


def test_size_too_large_to_hold_fails_before_drawing():
    with pytest.raises(MemoryError):
        Generator(0).uniform(0.0, 1.0, 3 * 10**15)
