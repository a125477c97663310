"""Pointwise kernel evaluations on the poly cut-plane.

The multivariate kernel is

    K_n(z, t) = i * ( 2/(2i)^n * prod_l (1/(t_l - z_l) - 1/(t_l + i))
                      - 1/(2i)^n * prod_l (1/(t_l - i) - 1/(t_l + i)) )

which we evaluate through the building block
A(z, t) = (1/2i)(1/(t-z) - 1/(t+i)) as K_n = i(2 prod A(z_l,t_l) - prod A(i,t_l)).
The one-variable closed form K_1(z,t) = 1/(t-z) - t/(1+t^2) is kept as an
independent cross-check.

Near-real points are accepted; precision then degrades like 1/|Im z_j|,
which Stieltjes inversion relies on when probing y -> 0+.

Every one-variable factor is a pole pair
pair(p, q)(t) = (1/2i)(1/(t-p) - 1/(t-q)) (`_pair`): A(z, .) is (z, -i), the
growth weight 1/(1+t^2) is (i, -i), and `_n_pairs` tabulates the N_rho.
`_pair` and `kernel_k` skip input validation.  The public entries check z
with `core._point`, the two Poisson ones with `core._upper`; only
`kernel_K1_closed` and `n_factor` read a scalar z, as the point (z,).  A
real, near-real, NaN, infinite or non-numeric coordinate raises
`InvalidPointError`.  They check t with `core._real_vector`: a wrong
length or a non-finite entry raises `InvalidArgumentError`.  The two
kernel sums run through the reflection sums of `core`.
"""

from __future__ import annotations

from . import core
from .core import _integer, _point, _real_vector, _upper


def _pair(p, q, t):
    return (1.0 / (t - p) - 1.0 / (t - q)) / 2j


def _n_pairs(z):
    """The pole pairs of N_-1, N_0 and N_1 at z, in that order."""
    return ((z, 1j), (1j, -1j), (-1j, z.conjugate()))


def kernel_k(zs, ts):
    pa = 1.0 + 0j
    pc = 1.0 + 0j
    for z, t in zip(zs, ts):
        pa *= _pair(z, -1j, t)
        pc *= _pair(1j, -1j, t)
    return 1j * (2.0 * pa - pc)


def kernel_K(z, t) -> complex:
    """Evaluate K_n(z, t)."""
    zs = _point(z).coords
    return kernel_k(zs, _real_vector(t, len(zs)))


def kernel_K1_closed(z: complex, t: float) -> complex:
    """One-variable closed form 1/(t-z) - t/(1+t^2)."""
    (z,), (t,) = _point((z,)).coords, _real_vector((t,), 1)
    return 1.0 / (t - z) - t / (1.0 + t * t)


def n_factor(rho: int, z: complex, t: float) -> complex:
    """The N_rho factor, rho in {-1, 0, 1}.

    N_0 is real and does not depend on z; conj(N_-1) = N_1.
    """
    _integer(rho, "rho", -1, 1)
    (z,), (t,) = _point((z,)).coords, _real_vector((t,), 1)
    return _pair(*_n_pairs(z)[rho + 1], t)


def poisson(z, t) -> float:
    """Poisson kernel P_n(z, t) = prod Im[z_j] / |t_j - z_j|^2 for z in C+^n."""
    zs = _upper(z, "poisson").coords
    p = 1.0
    for c, x in zip(zs, _real_vector(t, len(zs))):
        p *= c.imag / abs(x - c) ** 2
    return p


def kernel_symmetry_residual(z, t) -> float:
    """|K_n(z,t) - sum_{B nonempty} (-1)^(|B|+1) conj K_n(Psi_B(i*1, z), t)|."""
    zs = _point(z).coords
    t = _real_vector(t, len(zs))
    return abs(kernel_k(zs, t) - core.symmetry_sum(lambda w: kernel_k(w, t), zs))


def poisson_alternating_sum(z, t) -> complex:
    """sum_B (-1)^|B| K_n(Psi_B(z,z), t); equals 2i P_n(z,t) for z in C+^n."""
    zs = _upper(z, "poisson_alternating_sum").coords
    t = _real_vector(t, len(zs))
    return core.alternating_sum(lambda w: kernel_k(w, t), zs)
