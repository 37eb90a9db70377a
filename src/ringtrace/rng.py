"""Deterministic 64-bit random streams for reproducible simulation.

SplitMix64 keeps every draw a fixed-width integer operation, so a (seed,
parameters) pair replays bit-identically on any platform.  Substreams are
derived from (seed, label) so parallel components never share state.
"""

import math

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# chunk size keeps exp(-lam) well inside double range during inversion
_POISSON_CHUNK = 500.0


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(state: int, part) -> int:
    """Absorb one fork-key part (int or str) into a derived seed."""
    if isinstance(part, str):
        acc = len(part)
        for b in part.encode("utf-8"):
            acc = _mix64((acc << 8 | b) ^ _GOLDEN)
        part = acc
    elif not isinstance(part, int):
        raise TypeError(f"fork key parts must be int or str, got {type(part)!r}")
    return _mix64(state ^ _mix64(part & _MASK64))


class Rng:
    """SplitMix64 stream with the sampling primitives the simulator needs."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def fork(self, *key) -> "Rng":
        """Derive an independent child stream from (seed, key)."""
        s = _mix64(self.seed ^ _GOLDEN)
        for part in key:
            s = _fold(s, part)
        return Rng(s)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        limit = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def poisson(self, lam: float) -> int:
        """Poisson draw by CDF inversion; large means split into exact chunks."""
        if lam < 0:
            raise ValueError("poisson mean must be non-negative")
        total = 0
        while lam > _POISSON_CHUNK:
            total += self._poisson_inv(_POISSON_CHUNK)
            lam -= _POISSON_CHUNK
        return total + self._poisson_inv(lam)

    def _poisson_inv(self, lam: float) -> int:
        if lam == 0.0:
            return 0
        u = self.random()
        p = math.exp(-lam)
        cum = p
        k = 0
        # tail guard covers float round-off when u ~ 1
        cap = int(lam + 12.0 * math.sqrt(lam) + 50.0)
        while u > cum and k < cap:
            k += 1
            p *= lam / k
            cum += p
        return k
