"""Seedable latency/cost distributions.

Cost models throughout the reproduction (syscall costs, proc-parse
overheads, wait-notify delays, access-link RTTs) are expressed as
:class:`Distribution` objects so that each experiment documents its
parameters explicitly and every run is reproducible from a seed.

All units are milliseconds of virtual time unless a caller says
otherwise; distributions are unit-agnostic.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Optional, Sequence, Tuple


class Distribution:
    """Base class: a samplable non-negative random variable.

    ``rng`` is the stream :meth:`sample` draws from.  A distribution
    nobody bound gets its own ``random.Random(0)`` the first time it is
    read -- not at construction, where almost every caller's next move
    is :meth:`bind` and the seeded generator would be thrown away.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        if rng is not None:
            self.rng = rng

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails; costs nothing once bound.
        if name == "rng":
            rng = self.rng = random.Random(0)
            return rng
        raise AttributeError(name)

    def reseed(self, seed: int) -> None:
        self.bind(random.Random(seed))

    def bind(self, rng: random.Random) -> "Distribution":
        """Share a caller-provided RNG stream (for joint determinism)."""
        self.rng = rng
        return self

    def sample(self) -> float:
        raise NotImplementedError

    def sample_many(self, n: int) -> List[float]:
        return [self.sample() for _ in range(n)]


class Constant(Distribution):
    """Degenerate distribution; always returns ``value``."""

    def __init__(self, value: float):
        super().__init__()
        if value < 0:
            raise ValueError("constant cost must be non-negative")
        self.value = float(value)

    def sample(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return "Constant(%g)" % self.value


class Uniform(Distribution):
    def __init__(self, low: float, high: float,
                 rng: Optional[random.Random] = None):
        super().__init__(rng)
        if low > high or low < 0:
            raise ValueError("need 0 <= low <= high")
        self.low = float(low)
        self.high = float(high)

    def sample(self) -> float:
        return self.rng.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return "Uniform(%g, %g)" % (self.low, self.high)


class Normal(Distribution):
    """Gaussian truncated at ``floor`` (default 0) from below."""

    def __init__(self, mean: float, std: float, floor: float = 0.0,
                 rng: Optional[random.Random] = None):
        super().__init__(rng)
        if std < 0:
            raise ValueError("std must be non-negative")
        self.mean = float(mean)
        self.std = float(std)
        self.floor = float(floor)

    def sample(self) -> float:
        return max(self.floor, self.rng.gauss(self.mean, self.std))

    def __repr__(self) -> str:
        return "Normal(%g, %g)" % (self.mean, self.std)


class LogNormal(Distribution):
    """Log-normal parameterised by the *target* median and sigma.

    Latency tails in the wild are heavy; log-normal matches the shapes
    the paper reports for proc parsing and DNS RTTs far better than a
    Gaussian.  ``median`` is the distribution median (exp(mu)).
    """

    def __init__(self, median: float, sigma: float, shift: float = 0.0,
                 rng: Optional[random.Random] = None):
        super().__init__(rng)
        if median <= 0 or sigma < 0:
            raise ValueError("median must be > 0 and sigma >= 0")
        self.median = float(median)
        self.sigma = float(sigma)
        self.shift = float(shift)
        self._mu = math.log(median)

    def sample(self) -> float:
        return self.shift + self.rng.lognormvariate(self._mu, self.sigma)

    def __repr__(self) -> str:
        return "LogNormal(median=%g, sigma=%g, shift=%g)" % (
            self.median, self.sigma, self.shift)


class Exponential(Distribution):
    def __init__(self, mean: float, rng: Optional[random.Random] = None):
        super().__init__(rng)
        if mean <= 0:
            raise ValueError("mean must be positive")
        self.mean = float(mean)

    def sample(self) -> float:
        return self.rng.expovariate(1.0 / self.mean)

    def __repr__(self) -> str:
        return "Exponential(%g)" % self.mean


class Shifted(Distribution):
    """``base + offset`` -- e.g. a propagation floor under jitter."""

    def __init__(self, base: Distribution, offset: float):
        # Share the base's stream if it has one; never force one on it.
        super().__init__(vars(base).get("rng"))
        self.base = base
        self.offset = float(offset)

    def bind(self, rng: random.Random) -> "Distribution":
        self.base.bind(rng)
        return super().bind(rng)

    def sample(self) -> float:
        return self.offset + self.base.sample()

    def __repr__(self) -> str:
        return "Shifted(%r, +%g)" % (self.base, self.offset)


class Mixture(Distribution):
    """Weighted mixture of component distributions.

    Used for bimodal costs such as "fast path usually, occasional
    millisecond spike" (selector register(), notify delay) and for
    populations that mix LTE and non-LTE samples (Figure 11's Cricket
    and U.S. Cellular models).
    """

    def __init__(self, components: Sequence[Tuple[float, Distribution]],
                 rng: Optional[random.Random] = None):
        super().__init__(rng)
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = [w for w, _ in components]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative, sum > 0")
        self.components = [dist for _, dist in components]
        total = float(sum(weights))
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        self._cumulative = cumulative

    def bind(self, rng: random.Random) -> "Distribution":
        for dist in self.components:
            dist.bind(rng)
        return super().bind(rng)

    def sample(self) -> float:
        u = self.rng.random()
        index = bisect.bisect_left(self._cumulative, u)
        index = min(index, len(self.components) - 1)
        return self.components[index].sample()

    def __repr__(self) -> str:
        return "Mixture(%d components)" % len(self.components)


class Empirical(Distribution):
    """Resamples (with linear interpolation) from observed values."""

    def __init__(self, samples: Sequence[float],
                 rng: Optional[random.Random] = None):
        super().__init__(rng)
        if not samples:
            raise ValueError("need at least one sample")
        self.samples = sorted(float(s) for s in samples)

    def sample(self) -> float:
        u = self.rng.random() * (len(self.samples) - 1)
        lo = int(u)
        if lo >= len(self.samples) - 1:
            return self.samples[-1]
        frac = u - lo
        return self.samples[lo] * (1 - frac) + self.samples[lo + 1] * frac

    def __repr__(self) -> str:
        return "Empirical(n=%d)" % len(self.samples)
