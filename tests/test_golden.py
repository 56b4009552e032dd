"""Byte-for-byte replay of the recorded golden normal-form corpus.

The rewrite system is not confluent, so a normal form is whatever the
leftmost-reduction strategy produces.  `data/golden_normal_forms.json` was
recorded from the original worklist normalizer and is never regenerated:
any engine change must reproduce its canonical text exactly.  It holds
`normalize` of every T-free word of up to three letters over L[n], W[n]
with |n| <= 2 and of 400 seeded words of up to five letters, 400 seeded
products of two normal forms per profile, and 200 seeded `coproduct` and
200 `antipode` calls in the standard profile.
"""

import json
import pathlib

import pytest

from qw22 import (
    GENERALIZED,
    STANDARD,
    L,
    T,
    T_INV,
    W,
    antipode,
    coproduct,
    element_text,
    multiply,
    normalize,
    tensor_text,
)

CORPUS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_normal_forms.json").read_text()
)
PROFILES = {"standard": STANDARD, "generalized": GENERALIZED}


def word(text):
    out = []
    for tok in text.split():
        if tok == "T":
            out.append(T)
        elif tok == "T^-1":
            out.append(T_INV)
        else:
            out.append((L if tok[0] == "L" else W)(int(tok[2:-1])))
    return tuple(out)


def assert_replays(rows, compute):
    mismatches = [(row, got) for row in rows if (got := compute(*row[:-1])) != row[-1]]
    assert not mismatches, (
        f"{len(mismatches)} of {len(rows)} differ; first: {mismatches[0][0]} "
        f"now gives {mismatches[0][1]!r}"
    )


def test_corpus_shape():
    for name in PROFILES:
        assert len(CORPUS["normalize"][name]) == 1111 + 400
        assert len(CORPUS["multiply"][name]) == 400
    assert len(CORPUS["coproduct"]) == len(CORPUS["antipode"]) == 200


@pytest.mark.parametrize("name", PROFILES)
def test_golden_normalize(name):
    profile = PROFILES[name]
    assert_replays(
        CORPUS["normalize"][name], lambda w: element_text(normalize(word(w), profile))
    )


@pytest.mark.parametrize("name", PROFILES)
def test_golden_multiply(name):
    profile = PROFILES[name]
    assert_replays(
        CORPUS["multiply"][name],
        lambda wx, wy: element_text(
            multiply(normalize(word(wx), profile), normalize(word(wy), profile))
        ),
    )


def test_golden_coproduct():
    assert_replays(CORPUS["coproduct"], lambda w: tensor_text(coproduct(normalize(word(w)))))


def test_golden_antipode():
    assert_replays(CORPUS["antipode"], lambda w: element_text(antipode(normalize(word(w)))))
