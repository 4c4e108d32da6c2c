"""The storage layout of the collections a test builds or parses.

`model` stores a collection as dense bit rows for n <= DEFAULT_DENSE_THRESHOLD
and as compressed sparse rows above; tests that compare the two layouts move
that threshold here.
"""

from contextlib import contextmanager

import pytest

from rainbow_stars import model


@contextmanager
def dense_up_to(threshold: int):
    """Inside, `from_edges` and `parse_edge_list` pick the dense layout for
    n <= threshold and the sparse one above it: 0 makes every collection
    sparse."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "DEFAULT_DENSE_THRESHOLD", threshold)
        yield
