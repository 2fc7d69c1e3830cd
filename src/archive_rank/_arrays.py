"""Array helpers shared by the modules that use numpy (``graph`` and
``forest``). The module is private: its names are not part of the
package's interface."""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported inside the functions that use it
    import numpy as np

__all__ = ["sorted_distinct"]


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the 1-d array ``a``, which is sorted in
    place: the values ``np.unique(a)`` returns, down to which of two equal
    values (``-0.0`` and ``0.0``) stands for both and the one NaN kept.

    ``np.unique`` sorts a copy of its input, or builds a hash table of it,
    and imports ``numpy.ma`` on its first call; this sorts ``a`` with the
    same algorithm and keeps the first value of each run of equal ones."""
    import numpy as np

    a.sort()
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    if len(a) and a[-1] != a[-1]:  # NaNs sort last, and no NaN equals another
        keep[np.searchsorted(a, a[-1]) + 1 :] = False
    return a[keep]
