"""Minimal multilayer perceptron with manual forward/backward passes.

ReLU hidden layers, identity output (logits). Initialization is seeded
He-uniform fan-in scaling, so runs are reproducible bit for bit. No
dropout or normalization layers: the training comparisons in this package
are about label regularizers, and extra regularizers would confound them.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np

from .io import atomic_write_text
from .schema import CHECKPOINT, CHECKPOINT_FORMAT, TRAIN, check

__all__ = ["MlpModel", "SgdOptimizer", "save_checkpoint", "load_checkpoint"]


def param_count(layer_sizes) -> int:
    """Length of the flat parameter vector of an MLP with these layer widths."""
    return sum((a + 1) * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def _layer_pass(a, weights, biases, pre_acts, hidden):
    """Logits of the layers on input `a`. Layer li's pre-activation goes into `pre_acts[li]` and, below the
    output, its ReLU into `hidden[li]`: into the array there, or a fresh one stored there if it holds None.
    The weights and biases may carry a leading stack axis, as `MlpModel._views` returns them; each bias must
    broadcast against `a @ W` as given."""
    for li, (W, b) in enumerate(zip(weights, biases)):
        h = pre_acts[li] = np.matmul(a, W, out=pre_acts[li])
        h += b
        if li < len(hidden):
            a = hidden[li] = np.maximum(h, 0.0, out=hidden[li])
    return h


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
        self._layout, end = [], 0  # per layer: weight slice, weight shape, bias slice of `theta`
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            start, end = end, end + (fan_in + 1) * fan_out
            self._layout.append((slice(start, end - fan_out), (fan_in, fan_out), slice(end - fan_out, end)))
        self.weights, self.biases = self._views(self.theta)
        if init:
            rng = np.random.default_rng(seed)
            for W in self.weights:
                bound = np.sqrt(6.0 / W.shape[0])
                W[...] = rng.uniform(-bound, bound, size=W.shape)
        self._cache = None

    def _views(self, flat: np.ndarray):
        """Weight and bias views of `flat`: one vector in `theta`'s layout, or a stack of them along the last axis."""
        lead, weights, biases = flat.shape[:-1], [], []
        for w, shape, b in self._layout:
            weights.append(flat[..., w].reshape(lead + shape))
            biases.append(flat[..., b])
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
        self._cache = self._pass_arrays()
        logits = self._forward(self._cache, X)
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
        g = np.atleast_2d(np.asarray(grad_logits, dtype=np.float64))
        if g.shape != self._cache.pre_acts[-1].shape:
            raise ValueError(f"grad_logits shape {grad_logits.shape} does not match cached logits")
        grad = np.empty_like(self.theta)
        self._backward(self._cache, g, *self._views(grad))
        return grad

    def _pass_arrays(self, n=None) -> SimpleNamespace:
        """The arrays of one forward and backward pass over `n` rows; with n None, slots the pass fills afresh."""
        widths = self.layer_sizes[1:]
        new = (lambda w, dtype=float: None) if n is None else (lambda w, dtype=float: np.empty((n, w), dtype))
        return SimpleNamespace(x=None, pre_acts=[new(w) for w in widths], hidden=[new(w) for w in widths[:-1]],
                               deltas=[new(w) for w in widths[:-1]], masks=[new(w, bool) for w in widths[:-1]])

    def _forward(self, arrays: SimpleNamespace, X: np.ndarray) -> np.ndarray:
        """Logits of the (n, D) batch `X`, keeping in `arrays` what `_backward` needs."""
        arrays.x = X
        return _layer_pass(X, self.weights, self.biases, arrays.pre_acts, arrays.hidden)

    def _backward(self, arrays: SimpleNamespace, g: np.ndarray, grad_weights, grad_biases) -> None:
        """Backpropagate the (n, K) logit gradient `g` of the `_forward` that filled `arrays` into the views."""
        activations = [arrays.x, *arrays.hidden]
        for li in range(len(activations) - 1, -1, -1):
            np.matmul(activations[li].T, g, out=grad_weights[li])
            np.add.reduce(g, axis=0, out=grad_biases[li])
            if li > 0:
                g = np.matmul(g, self.weights[li].T, out=arrays.deltas[li - 1])
                g *= np.greater(arrays.pre_acts[li - 1], 0.0, out=arrays.masks[li - 1])

    def copy(self) -> "MlpModel":
        clone = MlpModel(self.layer_sizes, seed=self.seed, init=False)
        clone.theta[...] = self.theta
        return clone


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
        self._work = np.empty_like(model.theta)

    def step(self, model: MlpModel, grad: np.ndarray) -> None:
        self.vel *= self.momentum
        self.vel += np.add(grad, np.multiply(self.weight_decay, model.theta, out=self._work), out=self._work)
        model.theta -= np.multiply(self.lr, self.vel, out=self._work)


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
