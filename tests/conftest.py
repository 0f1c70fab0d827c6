from fractions import Fraction

import pytest

from superalg.liealg import build_gl, dump_definition
from superalg.linalg import add_term
from superalg.pbw import monomial_of_sorted_word
from superalg.scalars import ZERO

HALF = Fraction(1, 2)


@pytest.fixture(scope="session")
def gl11():
    return build_gl(1, 1)


@pytest.fixture(scope="session")
def gl21():
    return build_gl(2, 1)


@pytest.fixture(scope="session")
def gl22():
    return build_gl(2, 2)


@pytest.fixture(scope="session")
def permuted_definition():
    """permuted_definition(m, n): the builder's gl(m|n) definition with its
    root list reversed and its positives remapped and listed in descending
    order, a root order the builder never writes."""

    def permute(m, n):
        data = dump_definition(*build_gl(m, n))
        rsd = data["root_system"]
        last = len(rsd["roots"]) - 1
        rsd["roots"].reverse()
        rsd["positives"] = sorted((last - p for p in rsd["positives"]), reverse=True)
        return data

    return permute


@pytest.fixture(scope="session")
def b_vec():
    """b_vec(form, u, v): the form on sparse vectors {basis index: scalar}."""

    def pair(form, u, v):
        acc = ZERO
        for i, ci in u.items():
            for j, cj in v.items():
                acc = acc + ci * cj * form.b(i, j)
        return acc

    return pair


# The word-at-a-time rewriter that normalize_terms replaced, kept as the
# oracle: every word is rewritten on its own from a stack, and the
# scan restarts at the word's start after every swap.  It rewrites the
# leftmost or the rightmost out-of-order pair, so the two orders can be
# compared.


def _find_violation(word, parities, order):
    rng = range(len(word) - 1)
    if order == "rightmost":
        rng = reversed(rng)
    for k in rng:
        a, b = word[k], word[k + 1]
        if a > b or (a == b and parities[a]):
            return k
    return -1


def _stack_normalize_terms(alg, items, order="leftmost") -> dict:
    """Rewrite (word, coeff) pairs to normal form; returns {monomial: coeff}."""
    parities = alg.parities
    out: dict = {}
    stack = [(tuple(w), c) for w, c in items]
    while stack:
        word, coeff = stack.pop()
        k = _find_violation(word, parities, order)
        if k < 0:
            add_term(out, monomial_of_sorted_word(word, parities), coeff)
            continue
        a, b = word[k], word[k + 1]
        head, tail = word[:k], word[k + 2 :]
        if a == b:
            # odd square: xx = [x,x]/2
            for g2, c2 in alg.bracket(a, a).items():
                stack.append((head + (g2,) + tail, coeff * c2 * HALF))
        else:
            sign = -1 if (parities[a] and parities[b]) else 1
            stack.append((head + (b, a) + tail, coeff * sign))
            for g2, c2 in alg.bracket(a, b).items():
                stack.append((head + (g2,) + tail, coeff * c2))
    return out


@pytest.fixture(scope="session")
def stack_normalize_terms():
    """stack_normalize_terms(alg, items, order="leftmost"): the oracle above."""
    return _stack_normalize_terms
