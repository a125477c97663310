import pytest
from hypothesis import given, strategies as st

from polyherglotz import CutPlanePoint, InvalidArgumentError, InvalidPointError, point
from polyherglotz.core import MAX_DIMENSION, alternating_sum, symmetry_sum


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
    assert p.coords is coords
    assert tuple(1 if c.imag > 0 else -1 for c in p.coords) == (1, -1)
    assert not hasattr(p, "__dict__")


def test_point_rejects_empty():
    with pytest.raises(InvalidPointError):
        CutPlanePoint(())


def test_dimension_cap():
    assert MAX_DIMENSION == 8
    with pytest.raises(InvalidArgumentError):
        CutPlanePoint((1j,) * 9)


def test_is_upper():
    assert point(1j, 2j).is_upper()
    assert not point(1 + 2j, -3j, 0.5 - 0.1j).is_upper()


# A test-local, set-based oracle written from the paper's definitions, so
# that the library's bitmask sums keep an independent check.  Psi_B(w, z)
# keeps w_j for j outside B and takes conj(z_j) for j in B.


def _enumerate_subsets(n):
    """Every subset of {1..n}, in bitmask order (bit j for index j + 1)."""
    return [
        frozenset(j + 1 for j in range(n) if mask >> j & 1) for mask in range(1 << n)
    ]


def _psi_map(B, w, z):
    return tuple(z[j].conjugate() if j + 1 in B else w[j] for j in range(len(z)))


def test_psi_map_basic():
    w = (1 + 1j, 2 + 2j)
    z = (3 - 1j, 4 + 5j)
    assert _psi_map(frozenset(), w, z) == w
    assert _psi_map(frozenset({1, 2}), w, z) == (3 + 1j, 4 - 5j)
    assert _psi_map(frozenset({2}), w, z) == (1 + 1j, 4 - 5j)


def test_enumerate_subsets_order_n2():
    # the library's sums run in bitmask order; the oracle must too
    assert _enumerate_subsets(2) == [
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    ]


def _oracle_symmetry_sum(f, z, bprime):
    ivec = (1j,) * len(z)
    total = 0j
    for B in _enumerate_subsets(len(z)):
        if B and B <= bprime:
            sign = 1.0 if len(B) % 2 == 1 else -1.0
            total += sign * f(_psi_map(B, ivec, z)).conjugate()
    return total


def _oracle_alternating_sum(f, z):
    total = 0j
    for B in _enumerate_subsets(len(z)):
        sign = 1.0 if len(B) % 2 == 0 else -1.0
        total += sign * f(_psi_map(B, z, z))
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
