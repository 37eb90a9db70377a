"""Two-layer perceptron trained with minibatch gradient descent.

Architecture is fixed at input -> hidden (rectifier) -> head: softmax with
cross-entropy for classification, one linear unit with squared error for
regression.  Rows are Z-scaled by the column statistics of the training rows,
which the model keeps.  Training is a deterministic function of (data,
hyperparameters, seed); non-finite loss raises Diverged carrying the
offending rate.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import Diverged
from ..features import apply_normalization, normalize_columns

_EPS = 1e-12


@dataclass
class MlpHyperParams:
    hidden_units: int = 20
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0


@dataclass
class MlpModel:
    hp: MlpHyperParams
    task: str  # classify | regress
    classes_: np.ndarray | None
    means: np.ndarray = field(repr=False, default=None)  # of the training rows
    stds: np.ndarray = field(repr=False, default=None)
    W1: np.ndarray = field(repr=False, default=None)
    b1: np.ndarray = field(repr=False, default=None)
    W2: np.ndarray = field(repr=False, default=None)
    b2: np.ndarray = field(repr=False, default=None)
    loss_curve: list[float] = field(default_factory=list)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        h = apply_normalization(X, self.means, self.stds) @ self.W1 + self.b1
        return np.maximum(h, 0.0) @ self.W2 + self.b2

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classify":
            raise ValueError("probabilities only for classifiers")
        return _softmax(self._scores(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "classify":
            return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
        return self._scores(X)[:, 0]

    def loss_and_grads(self, X: np.ndarray, y_enc: np.ndarray,
                       sample_weight: np.ndarray | None = None):
        """Batch mean loss and the four gradients, on rows X already scaled."""
        n = X.shape[0]
        w = np.ones(n) if sample_weight is None else sample_weight
        # overflow here is the signature of divergence; the caller raises on
        # the resulting non-finite loss
        with np.errstate(over="ignore", invalid="ignore"):
            h_pre = X @ self.W1 + self.b1
            h = np.maximum(h_pre, 0.0)
            scores = h @ self.W2 + self.b2
            if self.task == "classify":
                p = _softmax(scores)
                picked = p[np.arange(n), y_enc]
                loss = float(-(w * np.log(np.maximum(picked, _EPS))).mean())
                dscores = p.copy()
                dscores[np.arange(n), y_enc] -= 1.0
                dscores *= (w / n)[:, None]
            else:
                resid = scores[:, 0] - y_enc
                loss = float(0.5 * (w * resid ** 2).mean())
                dscores = ((w * resid) / n)[:, None]
            dW2 = h.T @ dscores
            db2 = dscores.sum(axis=0)
            dh = dscores @ self.W2.T
            dh[h_pre <= 0] = 0.0
            dW1 = X.T @ dh
            db1 = dh.sum(axis=0)
        return loss, (dW1, db1, dW2, db2)


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_mlp(X: np.ndarray, y: np.ndarray, hp: MlpHyperParams,
              task: str = "classify", class_weight: str | None = None) -> MlpModel:
    X, means, stds = normalize_columns(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    rng = np.random.default_rng(np.random.SeedSequence(entropy=hp.seed,
                                                       spawn_key=(101,)))
    if task == "classify":
        classes, y_enc = np.unique(y, return_inverse=True)
        k = max(len(classes), 2)
        if class_weight == "balanced":
            freq = np.bincount(y_enc, minlength=len(classes))
            weights = (n / (len(classes) * freq))[y_enc]
        else:
            weights = None
    else:
        classes = None
        k = 1
        y_enc = np.asarray(y, dtype=np.float64)
        weights = None

    model = MlpModel(hp=hp, task=task, classes_=classes, means=means, stds=stds)
    model.W1 = rng.standard_normal((d, hp.hidden_units)) / np.sqrt(d)
    model.b1 = np.zeros(hp.hidden_units)
    model.W2 = rng.standard_normal((hp.hidden_units, k)) / np.sqrt(hp.hidden_units)
    model.b2 = np.zeros(k) if task == "classify" else np.full(1, y_enc.mean())

    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, hp.batch_size):
            batch = perm[start:start + hp.batch_size]
            bw = None if weights is None else weights[batch]
            loss, (dW1, db1, dW2, db2) = model.loss_and_grads(
                X[batch], y_enc[batch], bw)
            if not np.isfinite(loss):
                raise Diverged(hp.learning_rate, epoch)
            model.W1 -= hp.learning_rate * dW1
            model.b1 -= hp.learning_rate * db1
            model.W2 -= hp.learning_rate * dW2
            model.b2 -= hp.learning_rate * db2
            losses.append(loss)
        epoch_loss = float(np.mean(losses))
        if not np.isfinite(epoch_loss) or not np.isfinite(model.W1).all():
            raise Diverged(hp.learning_rate, epoch)
        model.loss_curve.append(epoch_loss)
    return model


def gradient_check(model: MlpModel, X: np.ndarray, y: np.ndarray,
                   n_weights: int = 10, eps: float = 1e-5,
                   seed: int = 0) -> float:
    """Max relative error of analytic vs central-difference gradients, on
    rows X already scaled (as `loss_and_grads` takes them)."""
    X = np.asarray(X, dtype=np.float64)
    if model.task == "classify":
        _, y_enc = np.unique(y, return_inverse=True)
    else:
        y_enc = np.asarray(y, dtype=np.float64)
    _, grads = model.loss_and_grads(X, y_enc)
    params = [model.W1, model.b1, model.W2, model.b2]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_weights):
        p_i = int(rng.integers(len(params)))
        param, grad = params[p_i], grads[p_i]
        flat_i = int(rng.integers(param.size))
        orig = param.flat[flat_i]
        param.flat[flat_i] = orig + eps
        lp, _ = model.loss_and_grads(X, y_enc)
        param.flat[flat_i] = orig - eps
        lm, _ = model.loss_and_grads(X, y_enc)
        param.flat[flat_i] = orig
        numeric = (lp - lm) / (2 * eps)
        analytic = grad.flat[flat_i]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst
