import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cutofflab import (
    ChainSpec,
    ChainValidationError,
    biased_path,
    chain_from_json,
    chain_to_json,
    load_chain,
    mixing_profile,
    random_reversible,
)
from cutofflab.chain import _strongly_connected, json_text


def test_k2_spectrum_is_exact(k2):
    s = k2.spectrum
    assert s.lambda_2 == pytest.approx(0.5, abs=1e-14)
    assert s.t_rel == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(np.sort(s.eigenvalues), [0.5, 1.0], atol=1e-14)


def test_k2_flags(k2):
    assert k2.is_reversible and k2.is_lazy and k2.is_irreducible
    assert np.allclose(k2.pi, [0.5, 0.5])


def test_p3_spectrum(p3):
    assert np.allclose(p3.pi, [0.25, 0.5, 0.25], atol=1e-14)
    assert np.allclose(np.sort(p3.spectrum.eigenvalues), [0.0, 0.5, 1.0],
                       atol=1e-13)


def test_row_sum_validation():
    P = np.array([[0.9, 0.2], [0.25, 0.75]])
    with pytest.raises(ChainValidationError):
        load_chain(P)


def test_negative_entry_rejected():
    P = np.array([[1.1, -0.1], [0.25, 0.75]])
    with pytest.raises(ChainValidationError):
        load_chain(P)


def test_supplied_stationary_law_is_checked():
    P = np.array([[0.75, 0.25], [0.25, 0.75]])
    with pytest.raises(ChainValidationError):
        load_chain(ChainSpec(P=P, pi=np.array([0.9, 0.1])))


def test_solved_stationary_law_must_be_positive_on_irreducible_chains():
    # the dense solve rounds pi(1) of biased_path(40), about 1.6e-19, to
    # -1.5e-17; given its own pi the chain loads
    chain = biased_path(40)
    with pytest.raises(ChainValidationError, match="state 1 is .*not positive; supply pi"):
        load_chain(chain.P)
    assert load_chain(chain.P, pi=chain.pi).pi.min() > 0.0
    # a reducible chain keeps the zeros of its stationary law
    absorbing = load_chain(np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert not absorbing.is_irreducible
    assert absorbing.pi.tolist() == [1.0, 0.0]


def test_require_raises_on_missing_property():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])  # periodic, not lazy
    chain = load_chain(P)
    with pytest.raises(ChainValidationError):
        chain.require(lazy=True)


def _scipy_strongly_connected(adj: np.ndarray) -> bool:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    ncomp, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
    return ncomp == 1


def test_strong_connectivity_matches_scipy_on_random_digraphs():
    # every other graph is symmetrized: a reversible chain's support is
    # symmetric, and the check searches such a graph in one direction only
    rng = np.random.default_rng(20140913)
    seen = set()
    for k in range(1500):
        n = int(rng.integers(2, 16))
        adj = rng.random((n, n)) < rng.uniform(0.02, 0.6)
        if k % 2:
            adj |= adj.T
        want = _scipy_strongly_connected(adj)
        assert _strongly_connected(adj) == want, adj.astype(int)
        seen.add((k % 2, want))
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


def _one_way_cycle(n: int) -> np.ndarray:
    return 0.5 * (np.eye(n) + np.roll(np.eye(n), 1, axis=1))


def _absorbing_path(n: int) -> np.ndarray:
    P = 0.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
    P[0, 0] += 0.25
    P[-1] = 0.0
    P[-1, -1] = 1.0
    return P


def _two_closed_classes() -> np.ndarray:
    block = np.array([[0.75, 0.25], [0.5, 0.5]])
    return np.kron(np.eye(2), block)


@pytest.mark.parametrize("case, irreducible, reversible", [
    ("one-way cycle", True, False),
    ("absorbing state", False, None),
    ("two closed classes", False, None),
    ("biased path 600", True, True),
])
def test_named_support_graphs(case, irreducible, reversible):
    if case == "biased path 600":
        chain = biased_path(600)  # diameter 599: one search level per state
    else:
        P = {"one-way cycle": _one_way_cycle(7), "absorbing state": _absorbing_path(6),
             "two closed classes": _two_closed_classes()}[case]
        chain = load_chain(P)
    adj = chain.P > 0
    assert _strongly_connected(adj) is irreducible
    assert _scipy_strongly_connected(adj) == irreducible
    assert chain.is_irreducible is irreducible
    if reversible is not None:
        assert chain.is_reversible is reversible
    if not irreducible:
        with pytest.raises(ChainValidationError, match="irreducible"):
            chain.require(irreducible=True)


def test_heat_kernel_row_matches_expm(k2, small_corpus):
    # the continuized kernel from the Taylor sum and the kept squares
    # against scipy's expm, at multiples of the step h and between them
    from scipy.linalg import expm

    from cutofflab.mixing import _power

    for chain in [k2, *small_corpus[:3]]:
        Q = chain.P - np.eye(chain.n)
        for t in (0.0, np.log(2.0), 1.0, 3.0 * chain.spectrum.t_rel):
            np.testing.assert_allclose(_power(chain, t, continuous=True), expm(Q * t),
                                       rtol=0.0, atol=1e-12)
    # closed form: 1/2 (1 +- e^{-t/t_rel}) with t_rel = 2
    M = _power(k2, np.log(2.0), continuous=True)
    assert M[0, 0] == pytest.approx(0.5 * (1 + np.sqrt(0.5)), abs=1e-12)
    assert M[0, 1] == pytest.approx(0.5 * (1 - np.sqrt(0.5)), abs=1e-12)


def test_json_round_trip_is_bit_for_bit(tmp_path, small_corpus):
    chain = small_corpus[1]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    chain_to_json(chain, str(p1))
    loaded = chain_from_json(str(p1))
    chain_to_json(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.P, chain_from_json(str(p2)).P)


def test_json_preserves_labels(tmp_path):
    chain = load_chain(ChainSpec(P=np.array([[0.75, 0.25], [0.25, 0.75]]),
                                 labels=["left", "right"]))
    path = tmp_path / "c.json"
    chain_to_json(chain, str(path))
    assert chain_from_json(str(path)).spec.labels == ["left", "right"]


def test_atomic_write_leaves_no_temp_files(tmp_path, k2):
    target = tmp_path / "chain.json"
    chain_to_json(k2, str(target))
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []
    json.loads(target.read_text())  # valid JSON all the way through


def test_failed_csv_write_keeps_old_file(tmp_path, k2):
    # a row that fails to format mid-write must leave the old file whole
    target = tmp_path / "profile.csv"
    target.write_text("old contents\n")
    prof = mixing_profile(k2, t_max=3)
    prof.argmax_state = np.array([0, 0, None, 0], dtype=object)
    with pytest.raises(TypeError):
        prof.write_csv(str(target))
    assert target.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["profile.csv"]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 9))
def test_random_reversible_members_validate(seed, n):
    chain = random_reversible(n, seed=seed)
    assert chain.is_reversible and chain.is_lazy and chain.is_irreducible
    assert chain.P.diagonal().min() >= 0.5 - 1e-12
    # detailed balance, entrywise
    Q = chain.pi[:, None] * chain.P
    assert np.allclose(Q, Q.T, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_spectrum_decomposition_identities(seed):
    chain = random_reversible(8, seed=seed)
    s = chain.spectrum
    # completeness: sum_i f_i(y)^2 = 1 / pi(y)
    F = s.eigenfunctions
    assert np.allclose((F ** 2).sum(axis=1), 1.0 / chain.pi, atol=1e-8)
    # eigenvalues all >= 0 for lazy chains
    assert s.eigenvalues.min() >= -1e-12


_SCALARS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 10 ** 30,
                     -(2 ** 70), True, False, None, "", 'q"u"ote', "back\\slash",
                     "\u00e9t\u00e9 \u20ac \U0001f600", "50% %s %%d", "line\nbreak, \t"]),
    st.floats(), st.integers(), st.booleans(), st.text(max_size=6),
    st.floats().map(np.float64),
)
_KEYS = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.floats(), st.booleans(),
                  st.none())
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_json_text_is_json_dumps_byte_for_byte(obj):
    assert json_text(obj) == json.dumps(obj, indent=1)
    assert json_text([obj, {"k": obj}]) == json.dumps([obj, {"k": obj}], indent=1)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)))
def test_json_text_writes_float_arrays_as_their_lists(a):
    assert json_text(a) == json.dumps(a.tolist(), indent=1)
    payload = {"P": a, "rows": [a, a.tolist()], "n": 3}
    assert json_text(payload) == json.dumps(
        {"P": a.tolist(), "rows": [a.tolist(), a.tolist()], "n": 3}, indent=1)


def test_json_text_without_the_c_encoder(monkeypatch):
    from cutofflab import chain as chain_module

    obj = {"a": [1, 2.5, math.nan, "\u00e9"], "b": {"c": None, "d": []}, "e": True}
    monkeypatch.setattr(chain_module, "c_make_encoder", None)
    chain_module._flat_encoder.cache_clear()
    try:
        assert json_text(obj) == json.dumps(obj, indent=1)
    finally:
        chain_module._flat_encoder.cache_clear()


def test_json_text_rejects_what_json_dumps_rejects():
    for obj in ([np.int64(1)], {"k": object()}, {(1, 2): 1}, {"a": [1, {(1,): 2}]}):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=1)
        with pytest.raises(TypeError):
            json_text(obj)


def test_chain_file_is_json_dumps_of_its_lists(tmp_path, small_corpus):
    path = tmp_path / "chain.json"
    for chain in small_corpus:
        chain_to_json(ChainSpec(P=chain.P, pi=chain.pi, labels=list("abcdefghijklmnop"[:chain.n])),
                      str(path))
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=1) + "\n"
        assert list(payload) == ["n", "P", "labels", "pi"]
        assert payload["pi"] == chain.pi.tolist()
