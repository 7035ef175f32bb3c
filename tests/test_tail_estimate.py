"""Property test of the builder's tail estimates: on any grid, every entry
of the last two rows and columns that _tail_rows computes without the 2-D
transform is within a quarter of the estimates' margin of the transform's.

Skipped when Hypothesis is not installed.  Examples are derandomized, so
every run tries the same grids.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from bicheb import builder, chebcore

degrees = st.sampled_from([128, 256, 512, 1024])


@st.composite
def grids(draw):
    """Samples on a Lobatto grid of 129 x 129 to 1025 x 1025: normal noise,
    1e3 + U(-1, 1), or a product of sines."""
    n, m = draw(degrees), draw(degrees)
    kind = draw(st.sampled_from(["noise", "offset", "sines"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "noise":
        return rng.standard_normal((n + 1, m + 1))
    if kind == "offset":
        return 1e3 + rng.uniform(-1.0, 1.0, (n + 1, m + 1))
    a, b, c, d = rng.uniform(0.0, 300.0, 4)
    x, y = chebcore.lobatto_nodes(n), chebcore.lobatto_nodes(m)
    return np.sin(a * x + b)[:, None] * np.sin(c * y + d)[None, :]


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(grids())
def test_estimates_are_within_a_quarter_of_the_margin(values):
    coeffs = chebcore._lobatto_coeffs(values)
    slack = builder._ESTIMATE_SLACK * builder._peak(values)
    assert np.abs(builder._tail_rows(values, 0) - coeffs[-2:, :]).max() <= slack / 4
    assert np.abs(builder._tail_rows(values, 1) - coeffs[:, -2:].T).max() <= slack / 4
