"""Closed-form weighted A-integrals against the quadrature oracle."""

import math

from hypothesis import given, settings, strategies as st

from polyherglotz import a_factor
from polyherglotz.cli import main
from polyherglotz.measures import (
    cauchy_weight,
    constant_density,
    gaussian_density,
    rational_density,
)
from polyherglotz.quadrature import integrate_line

densities = st.one_of(
    st.floats(0.0, 5.0).map(constant_density),
    st.just(cauchy_weight()),
    st.just(rational_density("cauchy_squared")),
    st.builds(gaussian_density, st.floats(-3.0, 3.0), st.floats(0.2, 3.0)),
)

# |Im z| log-uniform in [1e-3, 10] on either side of the real axis, and
# points within 1e-6 of the removable singularity at i and the zero at -i
general_z = st.builds(
    lambda x, log_y, sign: complex(x, sign * math.exp(log_y)),
    st.floats(-5.0, 5.0),
    st.floats(math.log(1e-3), math.log(10.0)),
    st.sampled_from((-1.0, 1.0)),
)
near_i_z = st.builds(
    lambda anchor, dx, dy: anchor + complex(dx, dy),
    st.sampled_from((1j, -1j)),
    st.floats(-1e-6, 1e-6),
    st.floats(-1e-6, 1e-6),
)


@settings(deadline=None)
@given(densities, st.one_of(general_z, near_i_z))
def test_a_integral_matches_quadrature(w, z):
    val, err = integrate_line(lambda t: a_factor(z, t) * w(t), singularities=[z.real])
    assert abs(w.a_integral(z) - val) <= err + 1e-10


def test_characterize_lebesgue2_seed8_passes():
    # the quadrature error of the A-integrals used to push the symmetry
    # residual to 2.1e-9 here, over the 1e-9 tolerance
    assert main(["check", "characterize", "--fn", "cauchy:lebesgue2", "--seed", "8"]) == 0
