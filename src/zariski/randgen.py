"""Seeded generators for random test data.

All randomness flows through ``random.Random`` (the Mersenne Twister), so
a fixed seed plus the documented bounds fully determine every generated
object.  Bounds follow the experiment conventions: permutations are
supported inside {0, ..., support-1}, matrix rows have degree at most
max_degree, separating-group elements have component index at most max_k,
generator index at most max_gen, and exponents in [-max_exp, max_exp].
"""

from __future__ import annotations

from random import Random

from zariski.groups import SYM
from zariski.perm import FinPermutation, transposition
from zariski.ragged import MatrixPair, normalize, pair_of_rows
from zariski.sepgroup import GElement, g_element

DEFAULT_ADJUSTER = transposition(0, 1)


def rand_perm(rng: Random, support: int) -> FinPermutation:
    """Uniform permutation of {0, ..., support-1}, fixed points pruned.

    A shuffle of range(support) is a bijection, and pruning its fixed
    points leaves a bijection of the moved points, so the constructor's
    validation is skipped.
    """
    images = list(range(support))
    rng.shuffle(images)
    return FinPermutation._trusted(
        {i: y for i, y in enumerate(images) if i != y})


def rand_moving_perm(rng: Random, support: int, x: int) -> FinPermutation:
    """Keep drawing ``rand_perm(rng, support)`` until one moves x.

    Only a point of {0, ..., support-1}, with at least two points, can be
    moved, so any other x or support is rejected up front.
    """
    if not 0 <= x < support or support < 2:
        raise ValueError(
            f"no permutation of {{0, ..., {support - 1}}} moves {x}")
    while True:
        f = rand_perm(rng, support)
        if f.apply(x) != x:
            return f


def rand_row(rng: Random, max_degree: int, support: int) -> tuple:
    degree = rng.randint(0, max_degree)
    return tuple(rand_perm(rng, support) for _ in range(degree + 1))


def rand_pair(rng: Random, max_rows: int, max_degree: int,
              support: int) -> MatrixPair:
    k = rng.randint(1, max_rows)
    return pair_of_rows(
        (rand_row(rng, max_degree, support) for _ in range(k)),
        (rand_row(rng, max_degree, support) for _ in range(k)))


def rand_proper_pair(rng: Random, max_rows: int, max_degree: int,
                     support: int) -> MatrixPair:
    """Keep sampling random pairs until one normalizes to a proper form.

    A proper form needs at least one row of positive degree, so bounds
    below one row or below degree one are rejected up front.
    """
    if max_rows < 1 or max_degree < 1:
        raise ValueError(
            f"no proper pair has at most {max_rows} row(s) of degree at "
            f"most {max_degree}; both bounds must be at least 1")
    while True:
        form = normalize(rand_pair(rng, max_rows, max_degree, support),
                         SYM, DEFAULT_ADJUSTER)
        if form.is_proper:
            return form.pair


def rand_gelement(rng: Random, max_k: int = 6, max_gen: int = 20,
                  max_exp: int = 5) -> GElement:
    spec = {}
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(0, max_k)
        exp = spec.setdefault(k, {})
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(0, max_gen)
            e = rng.randint(-max_exp, max_exp)
            exp[n] = exp.get(n, 0) + e
    return g_element(spec)
