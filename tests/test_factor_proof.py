"""Property test of phase 2's factor proof: whenever the rank-r factors
prove the off-grid check passes, the dense check of their trimmed product
passes too, so the proof accepts only what the dense product accepts.

Skipped when Hypothesis is not installed.  Examples are derandomized, so
every run tries the same factors.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from bicheb import builder, chebcore


@st.composite
def checks(draw):
    """Rank-r factors of up to 64 or up to 300 columns, r <= 8, so some past
    two periods (132) of the check's bases, whose entries fall by a drawn
    rate, a threshold from 1e-14 to 1 times their product's largest entry,
    and a reference that is random or the check values of the trimmed
    product or of the whole one, perturbed by up to twice the check's
    bound."""
    r = draw(st.integers(1, builder._MAX_RANK))
    size = st.one_of(st.integers(1, 64), st.integers(1, 300))
    rows, cols = draw(size), draw(size)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rate = draw(st.sampled_from([1.0, 0.9, 0.7, 0.4]))
    left = rng.standard_normal((r, rows)) * rate ** np.arange(rows)
    right = rng.standard_normal((r, cols)) * rate ** np.arange(cols)
    peak = np.abs(builder._expand(left, right)).max()
    threshold = peak * draw(st.sampled_from([1e-14, 1e-9, 1e-5, 1e-2, 0.3, 1.0]))
    c = builder._trimmed_product(left, right, threshold, chebcore.UNIT_SQUARE)
    bound = rows * cols * threshold
    if draw(st.booleans()):
        reference = rng.standard_normal((32, 32)) * draw(st.sampled_from([bound, 1.0]))
    else:
        coeffs = c.coeffs if draw(st.booleans()) else builder._expand(left, right)
        basis = builder._check_basis(max(coeffs.shape) - 1)
        values = basis[:coeffs.shape[0]].T @ coeffs @ basis[:coeffs.shape[1]]
        scale = draw(st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0, 1.001, 2.0]))
        reference = values + scale * bound * rng.uniform(-1.0, 1.0, (32, 32))
    return left, right, threshold, c, reference


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(checks())
def test_proof_accepts_only_what_the_dense_check_accepts(check):
    left, right, threshold, c, reference = check
    nx, ny = left.shape[1] - 1, right.shape[1] - 1
    bound = (nx + 1) * (ny + 1) * threshold
    if builder._factor_proof(left, right, reference, threshold, bound):
        assert builder._rejection(reference, c, nx, ny) is None
