import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from disentlab.errors import ArityMismatch
from disentlab.indexset import IndexSet


def bitsets(n=4, nuisance=False):
    size = n + (1 if nuisance else 0)
    return st.integers(0, (1 << size) - 1).map(lambda b: IndexSet(n, b, nuisance))


def test_members_and_cols():
    I = IndexSet.of([1, 3], 3)
    assert I.members() == (1, 3)
    assert I.cols() == [0, 2]
    assert I.bits == 0b101


def test_out_of_range_index_rejected():
    with pytest.raises(ArityMismatch):
        IndexSet.of([4], 3)
    with pytest.raises(ArityMismatch):
        IndexSet(2, 0b100)
    with pytest.raises(ArityMismatch, match="negative arity"):
        IndexSet(-1, 0)


@pytest.mark.parametrize("index", [1.5, 1.0, "1", None, True])
def test_non_integer_index_rejected(index):
    with pytest.raises(ArityMismatch, match=f"index {index!r} is not an integer"):
        IndexSet.of([index], 2)


def test_numpy_integer_index_accepted():
    assert IndexSet.of([np.int64(2)], 2) == IndexSet.of([2], 2)


def test_nuisance_index_is_n_plus_one():
    I = IndexSet.of([1, 3], 2, nuisance=True)
    assert I.members() == (1, I.eta_index) == (1, 3)
    assert str(I) == "{1,eta}"
    with pytest.raises(ArityMismatch):
        IndexSet.of([3], 2, nuisance=False)


@given(bitsets())
def test_complement_is_involutive(I):
    assert I.complement().complement() == I


@given(bitsets(), bitsets())
def test_de_morgan(I, J):
    assert (I | J).complement().bits == I.complement().bits & J.complement().bits
    assert IndexSet(I.n, I.bits & J.bits).complement() == I.complement() | J.complement()


@given(bitsets(), bitsets(), bitsets())
def test_boolean_algebra_laws(I, J, K):
    assert I | J == J | I
    assert (I | J) | K == I | (J | K)
    assert (I | J).bits == I.bits | J.bits
    assert (I | ~I).bits == (1 << I.universe_size) - 1


@given(bitsets(nuisance=True))
def test_full_includes_eta(I):
    full = IndexSet(I.n, (1 << (I.n + 1)) - 1, nuisance=True)
    assert I | full == full
    assert full.members()[-1] == full.eta_index


def test_mixed_universe_operations_rejected():
    with pytest.raises(ArityMismatch):
        IndexSet.of([1], 2) | IndexSet.of([1], 3)
    with pytest.raises(ArityMismatch):
        IndexSet.of([1], 2) | IndexSet.of([1], 2, nuisance=True)
