from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutofflab import (
    biased_path,
    birth_death,
    build_tree_chain,
    plateau_chain,
    random_corpus,
    random_reversible,
    random_tree,
    two_cliques,
)
from cutofflab.families import BIASED_PATH_MAX_N, FAMILIES, _plateau_fraction_rows


def test_biased_path_shape():
    chain = biased_path(10)
    assert chain.n == 10
    assert chain.is_reversible and chain.is_lazy and chain.is_irreducible
    # tridiagonal support
    off = np.abs(np.subtract.outer(np.arange(10), np.arange(10))) > 1
    assert np.all(chain.P[off] == 0.0)
    # stationary mass piles up geometrically toward the far end
    assert chain.pi[-1] > 0.5
    ratios = chain.pi[1:] / chain.pi[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


def test_biased_path_names_its_size_limit():
    # pi(0) ~ 3^-(n-1) leaves the double range past the named limit, where
    # validation used to report "pi must be strictly positive"
    assert BIASED_PATH_MAX_N == 678
    assert biased_path(BIASED_PATH_MAX_N).pi[0] > 0.0
    with pytest.raises(ValueError, match=f"biased-path needs n <= {BIASED_PATH_MAX_N}"):
        biased_path(BIASED_PATH_MAX_N + 1)


def test_plateau_rows_are_exact_fractions():
    # the generator works over rationals: every row must sum to exactly 1
    states, rows = _plateau_fraction_rows(12)
    for x in states:
        total = sum(rows[x].values(), Fraction(0))
        assert total == Fraction(1)


def test_plateau_chain_validates():
    chain = plateau_chain(10)
    assert chain.is_reversible and chain.is_lazy and chain.is_irreducible
    assert chain.n > 10  # branch plus segment blow the state count up


def test_two_cliques_shape():
    chain = two_cliques(6)
    assert chain.is_reversible and chain.is_lazy and chain.is_irreducible
    # two n-cliques plus the ceil(ln n)-vertex pendant path
    assert chain.n == 12 + int(np.ceil(np.log(6)))


def test_registry_families_are_deterministic():
    for name, fam in FAMILIES.items():
        a = fam(8)
        b = fam(8)
        assert np.array_equal(a.P, b.P), name


def test_random_corpus_is_reproducible():
    a = random_corpus(5, seed=77)
    b = random_corpus(5, seed=77)
    assert len(a) == len(b) == 5
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.P, cb.P)
    c = random_corpus(5, seed=78)
    assert any(not np.array_equal(x.P, y.P) for x, y in zip(a, c))


def test_random_corpus_sizes_in_range():
    for chain in random_corpus(20, seed=5, n_range=(3, 12)):
        assert 3 <= chain.n <= 12


def test_birth_death_validation():
    up = [0.2, 0.2]
    down = [0.1, 0.1]
    holding = [0.8, 0.7, 0.9]
    chain = birth_death(up, down, holding)
    assert chain.n == 3
    assert chain.is_reversible
    with pytest.raises(ValueError):
        birth_death([0.6, 0.6], down, [0.1, 0.2, 0.3])  # rows exceed 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
def test_random_tree_builds_valid_chain(seed, n):
    spec = random_tree(n, seed=seed)
    spec.validate()
    tc = build_tree_chain(spec)
    assert tc.chain.is_reversible and tc.chain.is_lazy
    assert tc.chain.is_irreducible


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_reversible_density_extremes(seed):
    sparse = random_reversible(8, density=0.05, seed=seed)
    dense = random_reversible(8, density=1.0, seed=seed)
    assert sparse.is_irreducible and dense.is_irreducible
    assert (dense.P > 0).sum() >= (sparse.P > 0).sum()
