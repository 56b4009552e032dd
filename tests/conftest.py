"""Shared test helpers."""

import pytest

from qw22 import algebra, cli, hopf, laurent, oscillator

# Every memo qw22 keeps, read at import so that a test which patches one of
# the module attributes still clears the real memo.
_MEMOS = (
    laurent.from_image,
    algebra._fuse_image,
    oscillator.ladder_weight,
    hopf._factor_coproduct,
    hopf._factor_antipode,
    hopf._word_coproduct,
    hopf._word_antipode,
    cli._parser,
)


def _clear_memos():
    algebra._insert_cache.clear()
    laurent._keys.clear()
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold_caches():
    """A function that empties every memo qw22 keeps, so the work counted
    after it is that of a fresh process."""
    return _clear_memos
