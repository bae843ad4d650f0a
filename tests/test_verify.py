"""The stacked finite-difference route behind `labo verify`'s gradient checks."""

import numpy as np
import pytest

from labo import verify
from labo.model import MlpModel
from labo.objectives import cp_loss


@pytest.mark.parametrize("layer_sizes", [[2, 8, 3], [4, 6, 6, 5]])
def test_stacked_forward_equals_one_model_per_row(layer_sizes):
    rng = np.random.default_rng(11)
    m = MlpModel(layer_sizes, seed=5)
    theta0 = m.theta.copy()
    x = rng.normal(0.0, 1.0, size=layer_sizes[0])
    step = 1e-5 * np.eye(theta0.size)
    thetas = np.concatenate([theta0 + step, theta0 - step, theta0 + rng.normal(0.0, 0.5, size=(8, theta0.size))])

    stacked = verify._stacked_logits(m, thetas, x)

    assert stacked.shape == (len(thetas), layer_sizes[-1])
    for theta, row in zip(thetas, stacked):
        m.theta[...] = theta
        assert np.array_equal(row, m.forward(x))


def test_stacked_central_difference_equals_the_looped_one():
    rng = np.random.default_rng(3)
    for num_classes in (2, 3, 10):
        z = rng.normal(0.0, 3.0, size=num_classes)
        k = int(rng.integers(num_classes))
        beta_cp = rng.uniform(0.0, 1.0)
        looped = np.empty_like(z)
        for i in range(z.size):
            e = np.zeros_like(z)
            e[i] = 1e-5
            looped[i] = (cp_loss(k, z + e, beta_cp) - cp_loss(k, z - e, beta_cp)) / (2.0 * 1e-5)

        stacked = verify._fd_grad(lambda Z: np.array([cp_loss(k, zz, beta_cp) for zz in Z]), z)

        assert np.array_equal(stacked, looped)
