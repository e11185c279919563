import numpy as np
import pytest
from numpy.testing import assert_allclose

from surfrates.chart_kernel import get_scenario
from surfrates.probes import probe_field, probe_field_b


@pytest.mark.parametrize("probe", [probe_field, probe_field_b])
@pytest.mark.parametrize("rank", [1, 2])
def test_probe_broadcasts_mixed_scalar_and_array_coordinates(probe, rank):
    field = probe(get_scenario("torus-static"), rank)
    a = np.arange(4.0)
    batched = field.eval(0.3, a, 1.1)
    assert batched.shape == (3,) * rank + (4,)
    for i, ai in enumerate(a):
        assert_allclose(batched[..., i], field.eval(0.3, ai, 1.1), rtol=1e-14, atol=1e-15)
