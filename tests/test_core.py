import pytest
from hypothesis import given, strategies as st

from polyherglotz import (
    CutPlanePoint,
    InvalidArgumentError,
    InvalidPointError,
    enumerate_subsets,
    point,
    psi_map,
    psi_point,
    signature_of,
)
from polyherglotz.core import (
    MAX_DIMENSION,
    alternating_sum,
    symmetry_sum,
    validate_index_set,
)


def test_point_rejects_real_coordinates():
    with pytest.raises(InvalidPointError):
        point(1.0)
    with pytest.raises(InvalidPointError):
        point(2j, 3.0 + 0j)


@pytest.mark.parametrize(
    "coords",
    [
        (complex("nan+nanj"), 1j),
        (complex(float("nan"), 1.0),),
        (1j, complex(0.0, float("inf"))),
        (complex(float("-inf"), -2.0), 1j),
    ],
)
def test_point_rejects_non_finite_coordinates(coords):
    with pytest.raises(InvalidPointError, match="not finite"):
        CutPlanePoint(coords)


def test_unchecked_point_matches_validated():
    coords = (0.5 + 1j, -2.0 - 0.25j)
    p = CutPlanePoint._unchecked(coords)
    assert p == CutPlanePoint(coords) and hash(p) == hash(CutPlanePoint(coords))
    assert p.coords is coords and p.signature().signs == (1, -1)
    assert not hasattr(p, "__dict__")


def test_point_rejects_empty():
    with pytest.raises(InvalidPointError):
        CutPlanePoint(())


def test_dimension_cap():
    assert MAX_DIMENSION == 8
    with pytest.raises(InvalidArgumentError):
        CutPlanePoint((1j,) * 9)


def test_signature_and_lower_set():
    p = point(1 + 2j, -3j, 0.5 - 0.1j)
    sig = signature_of(p)
    assert sig.signs == (1, -1, -1)
    assert sig.lower_index_set() == frozenset({2, 3})
    assert not sig.is_upper()
    assert point(1j, 2j).is_upper()


def test_psi_map_basic():
    z = (1 + 1j, 2 + 2j)
    w = (3 - 1j, 4 + 5j)
    assert psi_map(frozenset(), z, w) == z
    assert psi_map(frozenset({1, 2}), z, w) == (3 + 1j, 4 - 5j)
    assert psi_map(frozenset({2}), z, w) == (1 + 1j, 4 - 5j)


def test_psi_map_validates():
    with pytest.raises(InvalidArgumentError):
        psi_map(frozenset({3}), (1j, 2j), (1j, 2j))
    with pytest.raises(InvalidArgumentError):
        psi_map(frozenset(), (1j,), (1j, 2j))


def test_psi_point_wraps():
    p = psi_point(frozenset({1}), point(1j, 2j), point(3j, 4j))
    assert p.coords == (-3j, 2j)


def test_enumerate_subsets_order_n2():
    # bitmask-lexicographic order is part of the reproducibility contract
    got = list(enumerate_subsets(2))
    assert got == [
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    ]


def test_enumerate_subsets_filters():
    n = 3
    assert len(list(enumerate_subsets(n))) == 8
    assert len(list(enumerate_subsets(n, "nonempty"))) == 7
    bp = frozenset({1, 3})
    subs = list(enumerate_subsets(n, "subsets_of", bp))
    assert all(s <= bp for s in subs)
    assert len(subs) == 4
    rest = list(enumerate_subsets(n, "not_subsets_of", bp))
    assert len(rest) == 4
    assert all(not s <= bp for s in rest)


def test_enumerate_subsets_errors():
    with pytest.raises(InvalidArgumentError):
        list(enumerate_subsets(0))
    with pytest.raises(InvalidArgumentError):
        list(enumerate_subsets(2, "subsets_of"))
    with pytest.raises(InvalidArgumentError):
        list(enumerate_subsets(2, "bogus"))


def test_validate_index_set():
    assert validate_index_set({1, 2}, 2) == frozenset({1, 2})
    with pytest.raises(InvalidArgumentError):
        validate_index_set({0}, 2)
    with pytest.raises(InvalidArgumentError):
        validate_index_set({3}, 2)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(1, n)),
            st.lists(
                st.complex_numbers(
                    min_magnitude=0.01, max_magnitude=10, allow_nan=False
                ).filter(lambda c: abs(c.imag) > 1e-6),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_psi_map_componentwise(args):
    n, B, zs = args
    z = tuple(zs)
    out = psi_map(frozenset(B), z, z)
    for j in range(n):
        if j + 1 in B:
            assert out[j] == z[j].conjugate()
        else:
            assert out[j] == z[j]


def _oracle_symmetry_sum(f, z, bprime):
    ivec = (1j,) * len(z)
    total = 0j
    for B in enumerate_subsets(len(z), "subsets_of", bprime):
        if B:
            sign = 1.0 if len(B) % 2 == 1 else -1.0
            total += sign * f(psi_map(B, ivec, z)).conjugate()
    return total


def _oracle_alternating_sum(f, z):
    total = 0j
    for B in enumerate_subsets(len(z)):
        sign = 1.0 if len(B) % 2 == 0 else -1.0
        total += sign * f(psi_map(B, z, z))
    return total


def _lopsided(w):
    # not symmetric in its coordinates, so a permuted axis order shows
    p = 1.0 + 0j
    for c in w:
        p *= c
    return sum((k + 1) * c for k, c in enumerate(w)) + p


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.complex_numbers(
                    min_magnitude=0.01, max_magnitude=10, allow_nan=False
                ).filter(lambda c: abs(c.imag) > 1e-6),
                min_size=n,
                max_size=n,
            ),
            st.integers(0, (1 << n) - 1),
        )
    )
)
def test_reflection_sums_match_subset_oracle(args):
    zs, within = args
    z = tuple(zs)
    n = len(z)
    bprime = frozenset(j + 1 for j in range(n) if within >> j & 1)
    assert symmetry_sum(_lopsided, z, within) == _oracle_symmetry_sum(
        _lopsided, z, bprime
    )
    assert symmetry_sum(_lopsided, z) == _oracle_symmetry_sum(
        _lopsided, z, frozenset(range(1, n + 1))
    )
    assert alternating_sum(_lopsided, z) == _oracle_alternating_sum(_lopsided, z)
