"""The law table behind `check_axiom`: argument families and the README
lists that must follow the law and suite tables."""

import pathlib
import re

import pytest

from qw22 import GENERALIZED, L, ProfileError, T, check_axiom, element_from
from qw22.hopf import _LAWS, GENERATOR_LAWS, PAIR_LAWS, PRESERVATION_LAWS
from qw22.suites import SUITE_IDS

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def test_family_sizes():
    assert (len(GENERATOR_LAWS), len(PAIR_LAWS), len(PRESERVATION_LAWS)) == (6, 2, 15)
    assert len(_LAWS) == 6 + 2 + 15 + 2


@pytest.mark.parametrize("axiom", ["coassoc", "cocommutativity-witness"])
@pytest.mark.parametrize("arg", [(0, 1), None, T])
def test_element_law_rejects_other_arguments(axiom, arg):
    with pytest.raises(ValueError, match=rf"{axiom!r} takes an Element"):
        check_axiom(axiom, arg)


@pytest.mark.parametrize("axiom", ["delta-hom", "s-antihom"])
@pytest.mark.parametrize(
    "arg", [(1, 2), element_from(L(1)), (element_from(L(1)),) * 3, (element_from(L(1)), 2)]
)
def test_pair_law_rejects_other_arguments(axiom, arg):
    with pytest.raises(ValueError, match=rf"{axiom!r} takes an \(x, y\) pair of Elements"):
        check_axiom(axiom, arg)


@pytest.mark.parametrize("axiom", ["delta-ll", "s-tw", "commutativity-witness"])
@pytest.mark.parametrize("arg", [element_from(L(1)), (1, 2, 3), (1,), (1, "2"), 5])
def test_index_law_rejects_other_arguments(axiom, arg):
    with pytest.raises(ValueError, match=rf"{axiom!r} takes an \(m, n\) pair of ints"):
        check_axiom(axiom, arg)


def test_generalized_elements_are_a_profile_error():
    g = element_from(L(1), GENERALIZED)
    x = element_from(L(1))
    with pytest.raises(ProfileError):
        check_axiom("coassoc", g)
    for pair in ((g, x), (x, g), (g, g)):
        for axiom in PAIR_LAWS:
            with pytest.raises(ProfileError):
                check_axiom(axiom, pair)


def test_pairs_may_be_lists():
    x = element_from(L(1))
    assert check_axiom("delta-hom", [x, x]) == (True, None)
    assert check_axiom("delta-ll", [2, 2]) == (True, None)


def test_readme_suite_list_is_the_suite_table():
    listing = re.search(r"^Suites: (.*?), or `all`\.", README, re.M | re.S).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listing)) == SUITE_IDS


def test_readme_law_list_is_the_law_table():
    after = README.split("**Law checks.**", 1)[1]
    listing = re.search(r"^- .*?(?=\n\n)", after, re.M | re.S).group()
    ids = re.findall(r"`([a-z]+(?:-[a-z]+)*)`", listing)
    assert sorted(ids) == sorted(_LAWS)
    assert len(ids) == len(set(ids))
