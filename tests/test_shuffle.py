from fractions import Fraction

import pytest

from relprof.shuffle import (
    combination,
    shuffle,
    shuffle_words,
    word,
    words_of_total_size,
)

AB = ("a", "b")


def test_singleton_shuffle_three_terms():
    got = shuffle_words(word(AB, {"a"}), word(AB, {"b"}))
    assert got.as_dict() == {
        (frozenset({"a"}), frozenset({"b"})): 1,
        (frozenset({"b"}), frozenset({"a"})): 1,
        (frozenset({"a", "b"}),): 1,
    }


def test_empty_word_is_unit():
    unit = word(AB)
    w = word(AB, {"a"}, {"a", "b"})
    assert shuffle_words(unit, w).as_dict() == {w.letters: 1}
    assert shuffle_words(w, unit).as_dict() == {w.letters: 1}


def test_equal_singletons_do_not_merge():
    got = shuffle_words(word(AB, {"a"}), word(AB, {"a"}))
    assert got.as_dict() == {(frozenset({"a"}), frozenset({"a"})): 2}


def test_alphabet_mismatch():
    with pytest.raises(ValueError):
        shuffle_words(word(("a",), {"a"}), word(AB, {"a"}))


def test_empty_letter_rejected():
    with pytest.raises(ValueError):
        word(AB, set())


def test_shuffle_commutative_associative():
    u = word(AB, {"a"})
    v = word(AB, {"b"}, {"a"})
    w_ = word(AB, {"a", "b"})
    cu, cv, cw = (combination([(x, 1)]) for x in (u, v, w_))
    assert shuffle(cu, cv).as_dict() == shuffle(cv, cu).as_dict()
    left = shuffle(shuffle(cu, cv), cw)
    right = shuffle(cu, shuffle(cv, cw))
    assert left.as_dict() == right.as_dict()


def test_size_additivity():
    u = word(AB, {"a"}, {"b"})
    v = word(AB, {"a", "b"})
    for letters, coeff in shuffle_words(u, v).terms:
        assert sum(len(l) for l in letters) == u.size + v.size
        assert coeff > 0


def test_singleton_word_count_matches_colored_chain():
    # words with singleton letters over k symbols number k^n, the colored
    # dense chain profile
    for k, alphabet in ((1, ("a",)), (2, AB), (3, ("a", "b", "c"))):
        for n in range(5):
            singles = [
                w for w in words_of_total_size(alphabet, n)
                if all(len(l) == 1 for l in w.letters)
            ]
            assert len(singles) == k ** n


def marked_chain_product(v=2):
    """The chain product whose age algebra is the algebra of subset-letter
    words over v symbols: slice markers, same-position equivalence and
    position order."""
    from relprof.presentations import empty_finite_part, multichain

    arities = (1,) * v + (2, 2)  # marks, same-position, position-or-equal order
    vv = {
        v: {(x, y, "=") for x in range(v) for y in range(v)},
        v + 1: {(x, y, "<") for x in range(v) for y in range(v)}
        | {(x, x, "=") for x in range(v)},
    }
    unary = {x: {x} for x in range(v)}
    return multichain(arities, empty_finite_part(arities), v, unary, vv, name="marked")


def _code_of(pres, letters):
    from relprof.presentations import Word, realize
    from relprof.structures import canonical_code

    return canonical_code(realize(pres, Word((), tuple(letters))))


def test_shuffle_matches_marked_product_age_algebra():
    # the algebra of subset-letter words is the age algebra of the marked
    # chain product: slice markers + same-position equivalence + position
    # order.  Structure constants must agree with shuffle coefficients.
    from relprof.algebra import AgeBasis, multiply, type_element

    v = 2
    pres = marked_chain_product(v)
    basis = AgeBasis.build(pres, 4)

    # distinct words realize distinct types: dimensions match the word count
    for n in range(5):
        assert basis.dimension(n) == len(words_of_total_size(range(v), n))

    u = word(frozenset(range(v)), {0})
    w_ = word(frozenset(range(v)), {1}, {0})
    shuffled = shuffle_words(u, w_)
    product = multiply(
        basis,
        type_element(basis, _code_of(pres, u.letters)),
        type_element(basis, _code_of(pres, w_.letters)),
    )
    expected = {}
    for letters, coeff in shuffled.terms:
        key = basis.index_of(_code_of(pres, letters))
        expected[key] = expected.get(key, Fraction(0)) + coeff
    assert product.as_dict() == expected


def test_shuffle_matches_marked_product_structure_constants_to_size_7():
    # every pair of words of total size <= 7, far past the one degree-3 pair
    # above: the split tables of the prefix sweep against the shuffle product
    from relprof.algebra import AgeBasis, structure_constants

    top = 7
    pres = marked_chain_product(2)
    basis = AgeBasis.build(pres, top)
    words = [words_of_total_size(range(2), n) for n in range(top + 1)]
    code = {w.letters: _code_of(pres, w.letters) for level in words for w in level}
    assert len(set(code.values())) == len(code)  # distinct words, distinct types
    pairs = 0
    for a in range(top + 1):
        for b in range(top + 1 - a):
            for u in words[a]:
                for w_ in words[b]:
                    shuffled = shuffle_words(u, w_).terms
                    expected = {code[letters]: coeff for letters, coeff in shuffled}
                    assert structure_constants(basis, code[u.letters], code[w_.letters]) == expected
                    pairs += 1
    assert pairs == 4510  # sum of W(a) W(b) over a + b <= 7, W = 1, 2, 5, 12, 29, 70, 169, 408


def test_combination_sums():
    u = word(AB, {"a"})
    c = combination([(u, 1), (u, 2)])
    assert c.as_dict() == {u.letters: Fraction(3)}
    scaled = c.scale(Fraction(1, 3))
    assert scaled.as_dict() == {u.letters: Fraction(1)}
