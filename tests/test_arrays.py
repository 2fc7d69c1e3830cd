"""The package's sort-based distinct equals ``np.unique`` on every array a
table can hold: the same values, bit for bit, so a threshold that one of
them picks is written to ``forest.txt`` with the same bytes."""
import numpy as np
from hypothesis import example, given, strategies as st

from archive_rank._arrays import sorted_distinct


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# few distinct values, so that duplicates are common, and every special one
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(_FLOATS, max_size=60))
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0])
@example([float("nan"), 1.0, float("nan"), float("inf"), -0.0, 0.0])
@example([])
def test_float_distinct_equals_np_unique(values):
    a = np.array(values, dtype=np.float64)
    assert _same_bits(sorted_distinct(a.copy()), np.unique(a))


@given(st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3), max_size=60))
def test_int64_distinct_equals_np_unique(values):
    a = np.array(values, dtype=np.int64)
    assert _same_bits(sorted_distinct(a.copy()), np.unique(a))


def test_distinct_sorts_its_argument_in_place():
    a = np.array([3.0, 1.0, 3.0, 2.0])
    assert sorted_distinct(a).tolist() == [1.0, 2.0, 3.0]
    assert a.tolist() == [1.0, 2.0, 3.0, 3.0]
