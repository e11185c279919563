from dataclasses import replace

import numpy as np
import pytest

from surfrates.chart_kernel import get_scenario, sample_events
from surfrates.timederiv import FieldClosure
from surfrates.util import inv2

# a block of tangential rank k takes k factors of (d phi)^-1
_PULL = {0: "...->...", 1: "ij...,j...->i...", 2: "ik...,jl...,kl...->ij..."}


def _pull_back(closure, motion):
    """``closure`` as the observer of the chart map y = phi_t(z) sees it, with
    ``motion(t, z1, z2)`` the jets of phi: the proxy ``eval`` composed with
    phi, and each block of ``closure.layout`` transformed as its contravariant
    components, (d phi)^-1 on each of its tangential indices."""

    def eval_b(t, z1, z2):
        y = motion(t, z1, z2).X
        return closure.eval(t, y[0], y[1])

    def split_b(t, z1, z2):
        m = motion(t, z1, z2)
        split, jinv = closure.split_eval(t, m.X[0], m.X[1]), inv2(m.dX)
        blocks = {
            n: np.einsum(_PULL[k], *[jinv] * k, getattr(split, n))
            for n, k in closure.layout.items()
        }
        return replace(split, **blocks)

    return FieldClosure(closure.rank, eval_b, split_b, closure.layout)


@pytest.fixture(scope="session")
def pull_back():
    return _pull_back


@pytest.fixture(scope="session")
def torus_drift():
    return get_scenario("torus-breathing-drift")


@pytest.fixture(scope="session")
def torus_static():
    return get_scenario("torus-static")


@pytest.fixture(scope="session")
def sphere_static():
    return get_scenario("sphere-static")


@pytest.fixture(scope="session")
def sphere_rot():
    return get_scenario("sphere-rigid-rotation")


@pytest.fixture(scope="session")
def flat_torus():
    return get_scenario("flat-torus")


@pytest.fixture(scope="session")
def torus_events(torus_drift):
    return sample_events(torus_drift, 5, 1234)
