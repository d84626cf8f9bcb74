"""The shuffle algebra on words whose letters are non-empty subsets of a set.

The product of two words sums every word obtained as a disjoint union of
one occurrence of each: interleave the letters, optionally merging a letter
of one word with a *disjoint* letter of the other into their union.  On
singleton alphabets this forbids merging equal letters, so {a} shuffled
with {a} is 2 {a}{a} with no size-collapsing term.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .presentations import letter_sequences


@dataclass(frozen=True)
class ShuffleWord:
    alphabet: frozenset
    letters: tuple  # tuple[frozenset, ...]

    def __post_init__(self):
        for letter in self.letters:
            if not letter:
                raise ValueError("letters must be non-empty")
            if not letter <= self.alphabet:
                raise ValueError(f"letter {set(letter)} outside alphabet")

    @property
    def size(self) -> int:
        return sum(len(letter) for letter in self.letters)


def word(alphabet, *letters) -> ShuffleWord:
    alphabet = frozenset(alphabet)
    return ShuffleWord(alphabet, tuple(frozenset(l) for l in letters))


@dataclass(frozen=True)
class ShuffleCombination:
    alphabet: frozenset
    terms: tuple  # tuple[(letters, Fraction), ...] sorted, no zeros

    @classmethod
    def from_dict(cls, alphabet, data) -> "ShuffleCombination":
        items = tuple(
            sorted(
                ((letters, Fraction(c)) for letters, c in data.items() if Fraction(c)),
                key=lambda kv: (len(kv[0]), [sorted(l) for l in kv[0]]),
            )
        )
        return cls(frozenset(alphabet), items)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def scale(self, factor):
        return ShuffleCombination.from_dict(
            self.alphabet, {k: v * Fraction(factor) for k, v in self.terms}
        )


def combination(words_with_coeffs) -> ShuffleCombination:
    words = list(words_with_coeffs)
    if not words:
        raise ValueError("empty combination needs an explicit alphabet")
    alphabet = words[0][0].alphabet
    data = Counter()
    for w, c in words:
        if w.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
        data[w.letters] += Fraction(c)
    return ShuffleCombination.from_dict(alphabet, data)


@functools.lru_cache(maxsize=65536)
def _shuffle_letters(u: tuple, v: tuple) -> tuple:
    """Multiset of interleavings of two letter tuples, disjoint merges allowed."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = Counter()
    for rest, c in _shuffle_letters(u[1:], v):
        out[(u[0],) + rest] += c
    for rest, c in _shuffle_letters(u, v[1:]):
        out[(v[0],) + rest] += c
    if not (u[0] & v[0]):
        merged = u[0] | v[0]
        for rest, c in _shuffle_letters(u[1:], v[1:]):
            out[(merged,) + rest] += c
    return tuple(sorted(out.items()))


def shuffle_words(left: ShuffleWord, right: ShuffleWord) -> ShuffleCombination:
    if left.alphabet != right.alphabet:
        raise ValueError("alphabet mismatch")
    data = {letters: Fraction(c) for letters, c in _shuffle_letters(left.letters, right.letters)}
    return ShuffleCombination.from_dict(left.alphabet, data)


def shuffle(left: ShuffleCombination, right: ShuffleCombination) -> ShuffleCombination:
    """Bilinear extension of the word shuffle."""
    if left.alphabet != right.alphabet:
        raise ValueError("alphabet mismatch")
    out = Counter()
    for lw, lc in left.terms:
        for rw, rc in right.terms:
            for letters, c in _shuffle_letters(lw, rw):
                out[letters] += lc * rc * c
    return ShuffleCombination.from_dict(left.alphabet, out)


def words_of_total_size(alphabet, n: int):
    """All words of the given size; the degree-n basis of the algebra."""
    alphabet = frozenset(alphabet)
    return [ShuffleWord(alphabet, letters) for letters in letter_sequences(alphabet, n)]
