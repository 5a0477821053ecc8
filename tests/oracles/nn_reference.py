"""Frozen pre-fusion nn implementations — the equivalence oracle.

When the live substrate in :mod:`repro.nn.layers` / :mod:`repro.nn.optimizers`
was rewritten as a fused, allocation-free engine, the original per-batch
allocating implementations were frozen here, exactly as
:func:`tests.oracles.fs_reference.reference_discover` froze the pre-engine FS
loop.  ``tests/test_nn_engine.py`` asserts the fused float64 engine
reproduces these implementations *bit for bit* (identical parameter
trajectories), proving the optimization is not an approximation.

This module lives with the tests, not in the shipped package; do not
"optimize" it — its value is that it never changes.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import get_initializer, zeros
from repro.nn.layers import Layer
from repro.nn.network import Sequential, iterate_minibatches
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array, check_is_fitted, check_random_state


class ReferenceDense(Layer):
    """Pre-fusion fully connected layer (rebinding gradients per batch)."""

    def __init__(self, in_features, out_features, *, init="he_normal",
                 random_state=None) -> None:
        super().__init__()
        rng = check_random_state(random_state)
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "W": get_initializer(init)(rng, in_features, out_features),
            "b": zeros(out_features),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x = None

    def forward(self, x, training=False):
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_output):
        x = self._x
        self.grads["W"] = x.T @ grad_output
        self.grads["b"] = grad_output.sum(axis=0)
        return grad_output @ self.params["W"].T


class ReferenceReLU(Layer):
    def forward(self, x, training=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_output):
        return grad_output * self._mask


class ReferenceLeakyReLU(Layer):
    def __init__(self, negative_slope=0.2) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x, training=False):
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_output):
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)


class ReferenceTanh(Layer):
    def forward(self, x, training=False):
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_output):
        return grad_output * (1.0 - self._out**2)


class ReferenceSigmoid(Layer):
    def forward(self, x, training=False):
        self._out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return self._out

    def backward(self, grad_output):
        return grad_output * self._out * (1.0 - self._out)


class ReferenceDropout(Layer):
    def __init__(self, rate=0.5, *, random_state=None) -> None:
        super().__init__()
        self.rate = rate
        self._rng = check_random_state(random_state)
        self._mask = None

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output):
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class ReferenceBatchNorm1d(Layer):
    def __init__(self, num_features, *, momentum=0.9, eps=1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.params = {"gamma": np.ones(num_features), "beta": np.zeros(num_features)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x, training=False):
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        self._std = np.sqrt(var + self.eps)
        self._x_hat = (x - mean) / self._std
        self._training = training
        return self.params["gamma"] * self._x_hat + self.params["beta"]

    def backward(self, grad_output):
        x_hat, std = self._x_hat, self._std
        self.grads["gamma"] = (grad_output * x_hat).sum(axis=0)
        self.grads["beta"] = grad_output.sum(axis=0)
        g = grad_output * self.params["gamma"]
        if not self._training:
            return g / std
        return (g - g.mean(axis=0) - x_hat * (g * x_hat).mean(axis=0)) / std


class _ReferenceOptimizer:
    def __init__(self, layers, *, lr, weight_decay=0.0) -> None:
        self.layers = [layer for layer in layers if layer.params]
        self.lr = lr
        self.weight_decay = weight_decay

    def zero_grad(self):
        for layer in self.layers:
            for key in layer.grads:
                layer.grads[key][...] = 0.0

    def _iter_params(self):
        for li, layer in enumerate(self.layers):
            for key in layer.params:
                yield (li, key), layer.params[key], layer.grads[key]


class ReferenceSGD(_ReferenceOptimizer):
    """Pre-fusion SGD, including the velocity-rebinding momentum step."""

    def __init__(self, layers, *, lr=0.01, momentum=0.0, weight_decay=0.0) -> None:
        super().__init__(layers, lr=lr, weight_decay=weight_decay)
        self.momentum = momentum
        self._velocity: dict = {}

    def step(self):
        for key, param, grad in self._iter_params():
            g = grad
            if self.weight_decay:
                g = g + self.weight_decay * param
            if self.momentum:
                v = self._velocity.get(key)
                if v is None:
                    v = np.zeros_like(param)
                v = self.momentum * v - self.lr * g
                self._velocity[key] = v
                param += v
            else:
                param -= self.lr * g


class ReferenceAdam(_ReferenceOptimizer):
    """Pre-fusion Adam allocating ~7 temporaries per parameter per step."""

    def __init__(self, layers, *, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0) -> None:
        super().__init__(layers, lr=lr, weight_decay=weight_decay)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: dict = {}
        self._v: dict = {}
        self._t = 0

    def step(self):
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for key, param, grad in self._iter_params():
            m = self._m.get(key)
            if m is None:
                m = np.zeros_like(param)
                self._m[key] = m
                self._v[key] = np.zeros_like(param)
            v = self._v[key]
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad**2
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * param
            param -= self.lr * update


class ReferenceBinaryCrossEntropy:
    _EPS = 1e-12

    def forward(self, prediction, target):
        p = np.clip(prediction, self._EPS, 1.0 - self._EPS)
        self._p, self._t = p, target
        return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))

    def backward(self):
        p, t = self._p, self._t
        return ((p - t) / (p * (1.0 - p))) / p.size


class ReferenceConditionalGAN:
    """The pre-fusion CTGAN-style training/serving loop, frozen verbatim.

    Consumes the RNG in exactly the same order as the fused
    :class:`repro.gan.cgan.ConditionalGAN` (layer seeds, minibatch
    permutations, noise and dropout draws), which is what makes bit-identical
    trajectory comparison possible.  Telemetry hooks were dropped — they
    never touched the RNG.
    """

    def __init__(self, *, noise_dim=16, hidden_size=128, epochs=200,
                 batch_size=64, lr=2e-4, weight_decay=1e-6, conditional=True,
                 d_steps=1, dropout=0.25, random_state=None) -> None:
        self.noise_dim = noise_dim
        self.hidden_size = hidden_size
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.weight_decay = weight_decay
        self.conditional = conditional
        self.d_steps = d_steps
        self.dropout = dropout
        self.random_state = random_state
        self.generator_: Sequential | None = None
        self.discriminator_: Sequential | None = None
        self.n_invariant_: int | None = None
        self.n_variant_: int | None = None
        self.n_classes_: int | None = None
        self.history_: dict[str, list[float]] = {"d_loss": [], "g_loss": []}

    def _build_generator(self, rng):
        h = self.hidden_size
        in_dim = self.n_invariant_ + self.noise_dim
        seed = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
        return Sequential(
            [
                ReferenceDense(in_dim, h, random_state=seed()),
                ReferenceBatchNorm1d(h),
                ReferenceReLU(),
                ReferenceDense(h, h, random_state=seed()),
                ReferenceBatchNorm1d(h),
                ReferenceReLU(),
                ReferenceDense(h, self.n_variant_, init="glorot_uniform",
                               random_state=seed()),
                ReferenceTanh(),
            ]
        )

    def _build_discriminator(self, rng):
        h = self.hidden_size
        in_dim = self.n_invariant_ + self.n_variant_
        if self.conditional:
            in_dim += self.n_classes_
        seed = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
        return Sequential(
            [
                ReferenceDense(in_dim, h, random_state=seed()),
                ReferenceLeakyReLU(0.2),
                ReferenceDropout(self.dropout, random_state=seed()),
                ReferenceDense(h, h, random_state=seed()),
                ReferenceLeakyReLU(0.2),
                ReferenceDropout(self.dropout, random_state=seed()),
                ReferenceDense(h, 1, init="glorot_uniform", random_state=seed()),
                ReferenceSigmoid(),
            ]
        )

    def fit(self, X_inv, X_var, y_onehot=None):
        X_inv = check_array(X_inv, name="X_inv")
        X_var = check_array(X_var, name="X_var")
        if self.conditional:
            if y_onehot is None:
                raise ValidationError("conditional GAN requires y_onehot")
            y_onehot = check_array(y_onehot, name="y_onehot")
            self.n_classes_ = y_onehot.shape[1]
        else:
            self.n_classes_ = 0
        self.n_invariant_ = X_inv.shape[1]
        self.n_variant_ = X_var.shape[1]
        rng = check_random_state(self.random_state)
        self._rng = rng
        self.generator_ = self._build_generator(rng)
        self.discriminator_ = self._build_discriminator(rng)
        g_opt = ReferenceAdam(self.generator_.trainable_layers(), lr=self.lr,
                              weight_decay=self.weight_decay)
        d_opt = ReferenceAdam(self.discriminator_.trainable_layers(), lr=self.lr,
                              weight_decay=self.weight_decay)
        bce = ReferenceBinaryCrossEntropy()
        n = X_inv.shape[0]
        batch = min(self.batch_size, n)
        self.history_ = {"d_loss": [], "g_loss": []}
        for _epoch in range(self.epochs):
            d_losses, g_losses = [], []
            for idx in iterate_minibatches(n, batch, rng):
                inv = X_inv[idx]
                var = X_var[idx]
                cond = y_onehot[idx] if self.conditional else None
                m = inv.shape[0]

                for _ in range(self.d_steps):
                    z = rng.standard_normal((m, self.noise_dim))
                    fake_var = self.generator_.forward(
                        np.concatenate([inv, z], axis=1), training=True
                    )
                    real_in = self._d_input(inv, var, cond)
                    fake_in = self._d_input(inv, fake_var, cond)
                    d_real = self.discriminator_.forward(real_in, training=True)
                    loss_real = bce.forward(d_real, np.ones_like(d_real))
                    self.discriminator_.backward(bce.backward())
                    d_opt.step()
                    d_opt.zero_grad()
                    d_fake = self.discriminator_.forward(fake_in, training=True)
                    loss_fake = bce.forward(d_fake, np.zeros_like(d_fake))
                    self.discriminator_.backward(bce.backward())
                    d_opt.step()
                    d_opt.zero_grad()
                    d_losses.append(0.5 * (loss_real + loss_fake))

                z = rng.standard_normal((m, self.noise_dim))
                g_in = np.concatenate([inv, z], axis=1)
                fake_var = self.generator_.forward(g_in, training=True)
                fake_in = self._d_input(inv, fake_var, cond)
                d_fake = self.discriminator_.forward(fake_in, training=True)
                g_loss = bce.forward(d_fake, np.ones_like(d_fake))
                grad_d_in = self.discriminator_.backward(bce.backward())
                grad_fake = grad_d_in[:, self.n_invariant_:self.n_invariant_ + self.n_variant_]
                self.generator_.backward(grad_fake)
                g_opt.step()
                g_opt.zero_grad()
                d_opt.zero_grad()
                g_losses.append(g_loss)

            self.history_["d_loss"].append(float(np.mean(d_losses)))
            self.history_["g_loss"].append(float(np.mean(g_losses)))
        return self

    def _d_input(self, inv, var, cond):
        if self.conditional:
            return np.concatenate([inv, var, cond], axis=1)
        return np.concatenate([inv, var], axis=1)

    def generate(self, X_inv, *, n_draws=1, random_state=None):
        """Pre-fusion serving path: one full forward per Monte-Carlo draw."""
        check_is_fitted(self, "generator_")
        X_inv = check_array(X_inv, name="X_inv")
        rng = check_random_state(random_state) if random_state is not None else self._rng
        total = np.zeros((X_inv.shape[0], self.n_variant_))
        for _ in range(n_draws):
            z = rng.standard_normal((X_inv.shape[0], self.noise_dim))
            total += self.generator_.forward(
                np.concatenate([X_inv, z], axis=1), training=False
            )
        return total / n_draws
