"""MLP forward/backward/optimizer tests, with finite-difference gradient gates."""

import numpy as np
import pytest

from labo.model import MlpModel, SgdOptimizer, load_checkpoint, save_checkpoint
from labo.numerics import softmax
from labo.objectives import grad_wrt_logits, smoothed_ce
from labo.smoothing import uniform_smooth

# regression pin: first correct run of seed 42, [2, 8, 3], input (1, -1)
GOLDEN_LOGITS = [1.8784433810835854, -2.2070295031015386, 1.8294297133292632]


def fd_param_grads(model, f, h=1e-5):
    """Central finite differences of f() with respect to every parameter."""
    theta = model.theta.copy()
    g = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        model.theta[...] = theta + e
        up = f()
        model.theta[...] = theta - e
        down = f()
        g[i] = (up - down) / (2 * h)
    model.theta[...] = theta
    return g


def views_flat(model):
    """The weight and bias views concatenated in the documented layout."""
    return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in zip(model.weights, model.biases)])


class TestForward:
    def test_zero_parameters_give_uniform_softmax(self):
        m = MlpModel([4, 6, 3], seed=0, init=False)
        z = m.forward(np.ones(4))
        np.testing.assert_array_equal(z, np.zeros(3))
        np.testing.assert_allclose(softmax(z), [1 / 3] * 3, atol=1e-15)

    def test_identity_single_layer(self):
        m = MlpModel([3, 3], seed=0, init=False)
        m.weights[0][...] = np.eye(3)
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_array_equal(m.forward(x), x)

    def test_golden_logits(self):
        m = MlpModel([2, 8, 3], seed=42)
        np.testing.assert_array_equal(m.forward(np.array([1.0, -1.0])), GOLDEN_LOGITS)

    def test_batch_rows_match_single_inputs(self):
        # matrix-matrix and vector-matrix BLAS kernels may differ by an ulp
        m = MlpModel([3, 5, 4], seed=1)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(6, 3))
        Z = m.forward(X)
        for i in range(6):
            np.testing.assert_allclose(m.forward(X[i]), Z[i], rtol=0, atol=1e-12)

    def test_rejects_shape_mismatch(self):
        m = MlpModel([3, 4], seed=0)
        with pytest.raises(ValueError):
            m.forward(np.ones(5))

    def test_rejects_bad_architecture(self):
        with pytest.raises(ValueError):
            MlpModel([4], seed=0)
        with pytest.raises(ValueError):
            MlpModel([4, 1], seed=0)


class TestBackward:
    def test_zero_gradient_propagates_to_zero(self):
        m = MlpModel([2, 8, 3], seed=3)
        m.forward(np.array([0.5, -0.5]))
        grad = m.backward(np.zeros(3))
        assert grad.shape == m.theta.shape and not grad.any()

    def test_requires_forward_cache(self):
        m = MlpModel([2, 4, 3], seed=0)
        with pytest.raises(RuntimeError, match="forward"):
            m.backward(np.zeros(3))

    def test_linearity(self):
        m = MlpModel([2, 8, 3], seed=5)
        rng = np.random.default_rng(42)
        x = rng.normal(size=2)
        g1, g2 = rng.normal(size=3), rng.normal(size=3)
        m.forward(x)
        combined = m.backward(g1 + g2)
        m.forward(x)
        first = m.backward(g1)
        m.forward(x)
        second = m.backward(g2)
        np.testing.assert_allclose(combined, first + second, atol=1e-10)

    @pytest.mark.parametrize("arch", [[2, 8, 3], [4, 6, 6, 5]])
    def test_finite_difference_gate(self, arch):
        """Every parameter tensor's gradient matches central differences."""
        rng = np.random.default_rng(42)
        m = MlpModel(arch, seed=7)
        x = rng.normal(size=arch[0])
        k = int(rng.integers(arch[-1]))
        label = uniform_smooth(k, arch[-1], 0.1)

        fd = fd_param_grads(m, lambda: smoothed_ce(label, m.forward(x)))
        z = m.forward(x)
        analytic = m.backward(grad_wrt_logits(label, z))
        offset = 0
        for W, b in zip(m.weights, m.biases):
            for size in (W.size, b.size):
                fd_t = fd[offset : offset + size]
                an_t = analytic[offset : offset + size]
                rel = np.linalg.norm(fd_t - an_t) / max(np.linalg.norm(fd_t), 1e-12)
                assert rel <= 1e-5
                offset += size

    def test_batch_gradient_is_mean_of_instance_gradients(self):
        m = MlpModel([3, 6, 4], seed=11)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(5, 3))
        G = rng.normal(size=(5, 4)) / 5.0
        Z = m.forward(X)
        batch = m.backward(G)
        acc = np.zeros_like(batch)
        for i in range(5):
            m.forward(X[i])
            acc += m.backward(G[i])
        np.testing.assert_allclose(batch, acc, atol=1e-12)


class TestSgdStep:
    def test_vanilla_step(self):
        m = MlpModel([2, 2], seed=0, init=False)
        opt = SgdOptimizer(m, lr=0.5, momentum=0.0, weight_decay=0.0)
        opt.step(m, np.ones(6))
        np.testing.assert_allclose(m.weights[0], -0.5 * np.ones((2, 2)), atol=1e-15)
        np.testing.assert_allclose(m.biases[0], -0.5 * np.ones(2), atol=1e-15)

    def test_zero_gradient_is_identity_without_decay(self):
        m = MlpModel([2, 3], seed=9)
        before = m.theta.copy()
        opt = SgdOptimizer(m, lr=0.1, momentum=0.9, weight_decay=0.0)
        opt.step(m, np.zeros(9))
        np.testing.assert_array_equal(m.theta, before)

    def test_momentum_recursion(self):
        """Unit gradient twice at momentum 0.9: steps of 0.1 then 0.19."""
        m = MlpModel([1, 2], seed=0, init=False)
        opt = SgdOptimizer(m, lr=0.1, momentum=0.9, weight_decay=0.0)
        g = np.array([1.0, 1.0, 0.0, 0.0])  # W0 = ones, b0 = zeros
        opt.step(m, g)
        np.testing.assert_allclose(m.weights[0], -0.1 * np.ones((1, 2)), atol=1e-15)
        opt.step(m, g)
        np.testing.assert_allclose(m.weights[0], -0.29 * np.ones((1, 2)), atol=1e-15)

    def test_weight_decay_enters_gradient(self):
        m = MlpModel([1, 2], seed=0, init=False)
        m.weights[0][:] = 2.0
        opt = SgdOptimizer(m, lr=0.1, momentum=0.0, weight_decay=0.5)
        opt.step(m, np.zeros(4))
        np.testing.assert_allclose(m.weights[0], 2.0 - 0.1 * (0.5 * 2.0), atol=1e-15)

    def test_matches_per_layer_reference_bit_for_bit(self):
        """Flat SGD equals the per-layer update on every weight and bias."""
        m = MlpModel([3, 5, 4], seed=2)
        rng = np.random.default_rng(42)
        opt = SgdOptimizer(m, lr=0.1, momentum=0.9, weight_decay=5e-4)
        ref = [(W.copy(), b.copy()) for W, b in zip(m.weights, m.biases)]
        vel = [(np.zeros_like(W), np.zeros_like(b)) for W, b in ref]
        for _ in range(5):
            m.forward(rng.normal(size=(7, 3)))
            grad = m.backward(rng.normal(size=(7, 4)) / 7)
            opt.step(m, grad)
            offset = 0
            for (W, b), (vW, vb) in zip(ref, vel):
                gW = grad[offset : offset + W.size].reshape(W.shape)
                gb = grad[offset + W.size : offset + W.size + b.size]
                offset += W.size + b.size
                vW *= 0.9
                vW += gW + 5e-4 * W
                vb *= 0.9
                vb += gb + 5e-4 * b
                W -= 0.1 * vW
                b -= 0.1 * vb
        for (W, b), mW, mb in zip(ref, m.weights, m.biases):
            np.testing.assert_array_equal(mW, W)
            np.testing.assert_array_equal(mb, b)

    def test_rejects_bad_hyperparameters(self):
        m = MlpModel([2, 2], seed=0)
        with pytest.raises(ValueError):
            SgdOptimizer(m, lr=0.0)
        with pytest.raises(ValueError):
            SgdOptimizer(m, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SgdOptimizer(m, lr=0.1, weight_decay=-0.1)


class TestCheckpoint:
    def test_round_trip_is_value_exact(self, tmp_path):
        m = MlpModel([3, 7, 4], seed=123)
        # make values awkward on purpose
        m.weights[0][...] *= np.pi
        m.biases[1][...] += 1e-17
        path = tmp_path / "model.json"
        save_checkpoint(m, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.layer_sizes == m.layer_sizes
        assert loaded.seed == m.seed
        for a, b in zip(loaded.weights, m.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, m.biases):
            np.testing.assert_array_equal(a, b)

    def test_rejects_non_checkpoint_documents(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("change", ["drop", "extra"])
    def test_rejects_wrong_layer_count(self, tmp_path, change):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(MlpModel([2, 8, 3], seed=0), str(path))
        doc = json.loads(path.read_text())
        if change == "drop":
            doc["layers"] = doc["layers"][:1]
        else:
            doc["layers"].append(doc["layers"][-1])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="layers") as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "key", ["layers", "layer_sizes", "seed", "weight", "bias", "weight_shape", "bias_shape", "whole-document"]
    )
    def test_rejects_malformed_documents(self, tmp_path, key):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(MlpModel([2, 8, 3], seed=0), str(path))
        doc = json.loads(path.read_text())
        if key == "whole-document":
            doc = [1, 2]
        elif key in doc:
            del doc[key]
        else:
            del doc["layers"][1][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value)
        if key != "whole-document":
            assert repr(key) in str(err.value)

    def test_rejects_tampered_shapes(self, tmp_path):
        import json

        m = MlpModel([2, 3], seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(m, str(path))
        doc = json.loads(path.read_text())
        doc["layers"][0]["weight_shape"] = [3, 3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(str(path))


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        a = MlpModel([4, 16, 3], seed=77)
        b = MlpModel([4, 16, 3], seed=77)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_copy_is_deep(self):
        a = MlpModel([2, 3], seed=1)
        b = a.copy()
        b.weights[0][0, 0] += 1.0
        assert a.weights[0][0, 0] != b.weights[0][0, 0]


class TestFlatParameters:
    """`theta` holds every parameter; `weights`/`biases` are views into it."""

    def test_views_follow_sgd_checkpoint_and_copy(self, tmp_path):
        m = MlpModel([3, 5, 4], seed=4)
        m.forward(np.ones((2, 3)))
        SgdOptimizer(m, lr=0.1).step(m, m.backward(np.ones((2, 4))))
        np.testing.assert_array_equal(m.theta, views_flat(m))
        path = tmp_path / "model.json"
        save_checkpoint(m, str(path))
        loaded = load_checkpoint(str(path))
        np.testing.assert_array_equal(loaded.theta, views_flat(loaded))
        np.testing.assert_array_equal(loaded.theta, m.theta)
        clone = m.copy()
        np.testing.assert_array_equal(clone.theta, views_flat(clone))
        np.testing.assert_array_equal(clone.theta, m.theta)

    def test_views_cannot_be_rebound(self):
        m = MlpModel([3, 3], seed=0)
        with pytest.raises(TypeError):
            m.weights[0] = np.eye(3)
        with pytest.raises(TypeError):
            m.biases[0] = np.zeros(3)

    def test_copy_shares_no_memory(self):
        a = MlpModel([2, 4, 3], seed=1)
        b = a.copy()
        assert not np.shares_memory(a.theta, b.theta)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            assert not np.shares_memory(x, y)
