"""Minimal multilayer perceptron with manual forward/backward passes.

ReLU hidden layers, identity output (logits). Initialization is seeded
He-uniform fan-in scaling, so runs are reproducible bit for bit. No
dropout or normalization layers: the training comparisons in this package
are about label regularizers, and extra regularizers would confound them.
"""

from __future__ import annotations

import json

import numpy as np

from .io import atomic_write_text
from .schema import CHECKPOINT, CHECKPOINT_FORMAT, TRAIN, check

__all__ = ["MlpModel", "SgdOptimizer", "save_checkpoint", "load_checkpoint"]


def param_count(layer_sizes) -> int:
    """Length of the flat parameter vector of an MLP with these layer widths."""
    return sum((a + 1) * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


class MlpModel:
    """Fully connected ReLU network producing raw logits.

    All parameters live in one contiguous float64 vector `theta`, laid out
    as `W0.ravel(), b0, W1.ravel(), b1, ...` for `layer_sizes` [D_in, ..., K].
    `weights` ((fan_in, fan_out) each) and `biases` ((fan_out,) each) are
    read-only tuples of views into it: write in place, `m.weights[0][...] = W`.
    """

    def __init__(self, layer_sizes, seed: int = 0, init: bool = True):
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if min(layer_sizes) < 1 or layer_sizes[-1] < 2:
            raise ValueError(f"bad layer sizes {layer_sizes}")
        self.layer_sizes = layer_sizes
        self.seed = seed
        self.theta = np.zeros(param_count(layer_sizes))
        self.weights, self.biases = self._views(self.theta)
        if init:
            rng = np.random.default_rng(seed)
            for W in self.weights:
                bound = np.sqrt(6.0 / W.shape[0])
                W[...] = rng.uniform(-bound, bound, size=W.shape)
        self._cache = None

    def _views(self, flat: np.ndarray):
        weights, biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            biases.append(flat[offset : offset + fan_out])
            offset += fan_out
        return tuple(weights), tuple(biases)

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute logits; accepts a single (D,) input or an (n, D) batch.

        Caches pre-activations and activations for the next `backward` call.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        X = x[None, :] if single else x
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected input dim {self.input_dim}, got shape {x.shape}")
        activations = [X]
        pre_acts = []
        a = X
        last = len(self.weights) - 1
        for li, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = a @ W + b
            pre_acts.append(h)
            a = h if li == last else np.maximum(h, 0.0)
            activations.append(a)
        self._cache = (activations, pre_acts)
        logits = activations[-1]
        return logits[0] if single else logits

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Backpropagate a logit gradient from the most recent `forward`.

        `grad_logits` has the logits' shape ((K,) or (n, K)); the result is
        one flat vector in `theta`'s layout, summed over the batch. Pass the
        gradient already divided by the batch size to get mean-reduction
        gradients.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward (no cached activations)")
        activations, pre_acts = self._cache
        g = np.asarray(grad_logits, dtype=np.float64)
        if g.ndim == 1:
            g = g[None, :]
        if g.shape != pre_acts[-1].shape:
            raise ValueError(f"grad_logits shape {grad_logits.shape} does not match cached logits")
        grad = np.empty_like(self.theta)
        grad_weights, grad_biases = self._views(grad)
        for li in range(len(self.weights) - 1, -1, -1):
            grad_weights[li][...] = activations[li].T @ g
            grad_biases[li][...] = g.sum(axis=0)
            if li > 0:
                g = (g @ self.weights[li].T) * (pre_acts[li - 1] > 0)
        return grad

    def copy(self) -> "MlpModel":
        clone = MlpModel(self.layer_sizes, seed=self.seed, init=False)
        clone.theta[...] = self.theta
        return clone

    def params_flat(self) -> np.ndarray:
        """All parameters as one vector with `theta`'s layout (copy)."""
        return self.theta.copy()

    def set_params_flat(self, vec: np.ndarray) -> None:
        """Overwrite `theta` in place; a wrongly shaped `vec` changes nothing."""
        if np.shape(vec) != self.theta.shape:
            raise ValueError(f"parameter vector shape {np.shape(vec)}, expected {self.theta.shape}")
        self.theta[...] = vec


class SgdOptimizer:
    """SGD with classical momentum and L2 weight decay folded into the gradient.

    `step` updates `model.theta` in place from the flat gradient of
    `MlpModel.backward`, with one velocity vector `v` in the same layout:
    v <- momentum * v + grad + weight_decay * theta
    theta <- theta - lr * v
    """

    def __init__(self, model: MlpModel, lr: float, momentum: float = 0.9, weight_decay: float = 5e-4):
        check(dict(lr=lr, momentum=momentum, weight_decay=weight_decay), TRAIN)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.vel = np.zeros_like(model.theta)

    def step(self, model: MlpModel, grad: np.ndarray) -> None:
        self.vel *= self.momentum
        self.vel += grad + self.weight_decay * model.theta
        model.theta -= self.lr * self.vel


def save_checkpoint(model: MlpModel, path: str) -> None:
    """Write architecture, seed, and parameters as JSON (atomic, exact).

    Floats are serialized with repr-level precision, which round-trips
    every finite double exactly.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "layer_sizes": model.layer_sizes,
        "seed": model.seed,
        "layers": [
            {
                "weight_shape": list(W.shape),
                "weight": W.tolist(),
                "bias_shape": list(b.shape),
                "bias": b.tolist(),
            }
            for W, b in zip(model.weights, model.biases)
        ],
    }
    atomic_write_text(path, json.dumps(doc, indent=1))


def load_checkpoint(path: str) -> MlpModel:
    """Read a `save_checkpoint` document; ValueError names the file and the bad field."""
    try:
        with open(path) as f:
            doc = check(json.load(f), CHECKPOINT)  # weight and bias come back as float64 arrays
        sizes, layers = doc["layer_sizes"], doc["layers"]
        if len(layers) != len(sizes[1:]):
            raise ValueError(f"layers has {len(layers)} entries, layer_sizes need {len(sizes[1:])}")
        for li, (layer, fan_in, fan_out) in enumerate(zip(layers, sizes, sizes[1:])):
            for name, need in (("weight", [fan_in, fan_out]), ("bias", [fan_out])):
                shapes = [list(layer[name].shape), layer[f"{name}_shape"]]
                if shapes != [need] * 2:
                    raise ValueError(f"layers[{li}].{name} and {name}_shape are {shapes}; need {need}")
        model = MlpModel(sizes, seed=doc["seed"], init=False)  # only now: no width the file lacks is allocated
    except ValueError as e:
        raise ValueError(f"bad checkpoint {path}: {e}") from None
    for layer, W, b in zip(layers, model.weights, model.biases):
        W[...], b[...] = layer["weight"], layer["bias"]
    return model
