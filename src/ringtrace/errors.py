"""Exception and warning types shared across the package."""


class RingtraceError(Exception):
    """Base class for all package errors."""


class PoolTooSmall(RingtraceError):
    """Fewer eligible decoy outputs than the ring needs."""


class InsufficientFunds(RingtraceError):
    """Wallet spendable balance cannot cover amount + fee."""


class DoubleSpend(RingtraceError):
    """A real input is already marked spent."""


class InvalidRing(RingtraceError):
    """A ring references an output that does not exist or lies in the future."""


class UnknownScenario(RingtraceError):
    """Scenario name outside the s03..s07 presets."""


class InvalidSimParams(RingtraceError, ValueError):
    """A simulation setting outside its valid range."""


class ModeRequiresSecrets(RingtraceError):
    """Requested ground-truth edges from a public-only chain."""


class NoRings(RingtraceError):
    """One-hop features requested for a transaction without ring inputs."""


class EmptyChain(RingtraceError):
    """Featurization requested on a chain with no eligible rows."""


class NoTwoRingTxs(RingtraceError):
    """Ring-pair correlation needs at least one two-ring transaction."""


class DegenerateLabels(RingtraceError, ValueError):
    """Labels cannot train the task: fewer than two classes, or a spoof ring
    without exactly one real candidate."""


class Diverged(RingtraceError):
    """Training loss became non-finite."""

    def __init__(self, learning_rate: float, epoch: int):
        self.learning_rate = learning_rate
        self.epoch = epoch
        super().__init__(
            f"loss became non-finite at epoch {epoch} (learning_rate={learning_rate})"
        )


class ConstantTarget(RingtraceError):
    """Regression target has zero variance."""


class TooFewSamples(RingtraceError):
    """More folds requested than samples available."""


class SchemaError(RingtraceError):
    """An external dump or a feature CSV violates its documented layout."""

    def __init__(self, message: str, record: int | None = None, field: str | None = None):
        self.record = record
        self.field = field
        where = []
        if record is not None:
            where.append(f"record {record}")
        if field is not None:
            where.append(f"field '{field}'")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class StalledWarning(UserWarning):
    """Simulation made no progress for the configured number of blocks."""


class NoSplitsWarning(UserWarning):
    """Forest grew no splits; importances are a zero vector."""


class NoScheduleWarning(UserWarning):
    """An agent pool admits no valid destination; its schedule is empty."""
