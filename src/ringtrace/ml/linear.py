"""Linear regressor with epsilon-insensitive loss.

Stands in for kernel support-vector regression: the same loss geometry, a
tube of radius epsilon with L2 weight shrinkage, trained by minibatch
subgradient descent.  Rows are Z-scaled by the column statistics of the
training rows, which the model keeps.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import Diverged
from ..features import apply_normalization, normalize_columns


@dataclass
class LinearEpsHyperParams:
    learning_rate: float = 0.01
    epochs: int = 200
    epsilon: float = 0.1
    l2: float = 1e-4
    batch_size: int = 32
    seed: int = 0


@dataclass
class LinearEpsModel:
    hp: LinearEpsHyperParams
    w: np.ndarray = field(repr=False, default=None)
    b: float = 0.0
    means: np.ndarray = field(repr=False, default=None)  # of the training rows
    stds: np.ndarray = field(repr=False, default=None)
    loss_curve: list[float] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return apply_normalization(X, self.means, self.stds) @ self.w + self.b


def train_linear_epsilon(X: np.ndarray, y: np.ndarray,
                         hp: LinearEpsHyperParams) -> LinearEpsModel:
    X, means, stds = normalize_columns(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    rng = np.random.default_rng(np.random.SeedSequence(entropy=hp.seed,
                                                       spawn_key=(202,)))
    # with w at 0 the epsilon-loss is lowest at the target median
    model = LinearEpsModel(hp, np.zeros(d), float(np.median(y)), means, stds)
    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, hp.batch_size):
            batch = perm[start:start + hp.batch_size]
            resid = X[batch] @ model.w + model.b - y[batch]
            excess = np.abs(resid) - hp.epsilon
            loss = float(np.maximum(excess, 0.0).mean()
                         + 0.5 * hp.l2 * model.w @ model.w)
            if not np.isfinite(loss):
                raise Diverged(hp.learning_rate, epoch)
            sign = np.where(excess > 0, np.sign(resid), 0.0) / batch.size
            gw = X[batch].T @ sign + hp.l2 * model.w
            gb = sign.sum()
            model.w -= hp.learning_rate * gw
            model.b -= hp.learning_rate * gb
            losses.append(loss)
        if not np.isfinite(model.w).all():
            raise Diverged(hp.learning_rate, epoch)
        model.loss_curve.append(float(np.mean(losses)))
    return model
