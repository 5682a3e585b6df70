"""Period data: finite-support pools, sampling, forecasts, and file I/O.

A period realization bundles the four exogenous series a period needs
(energy price, regulation price, load, regulation request fraction),
each sampled at n+1 hourly points.  Pools hold K distinct realizations
with probabilities; sampling draws i.i.d. indices from a counter-based
RNG stream so whole runs replay from one seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

CSV_HEADER = ["hour", "energy_price", "fr_price", "load", "fr_request"]


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PeriodRealization:
    """One period's exogenous data, hourly samples at t = 0..n.

    energy_price: $/kWh, fr_price: $/kW, load: kW, fr_request: dispatch
    fraction in [0,1].  ``key`` digests all four series, so two
    realizations share a key iff they are bit-identical.
    """

    energy_price: np.ndarray
    fr_price: np.ndarray
    load: np.ndarray
    fr_request: np.ndarray

    def __post_init__(self):
        for name in ("energy_price", "fr_price", "load", "fr_request"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        n = self.energy_price.size
        for name in ("fr_price", "load", "fr_request"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} has {getattr(self, name).size} samples, expected {n}")
        if n < 2:
            raise ValueError("a period needs at least 2 hourly samples")
        for name in ("energy_price", "fr_price", "load"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)) or (arr < 0).any():
                raise ValueError(f"{name} must be finite and nonnegative")
        a = self.fr_request
        if not np.all(np.isfinite(a)) or (a < 0).any() or (a > 1).any():
            raise ValueError("fr_request must lie in [0, 1]")
        object.__setattr__(self, "key", _digest(self.energy_price, self.fr_price, self.load, self.fr_request))

    @property
    def n_steps(self) -> int:
        """Number of dynamics steps n; series have n+1 samples."""
        return self.energy_price.size - 1

    def to_dict(self) -> dict:
        return {
            "energy_price": self.energy_price.tolist(),
            "fr_price": self.fr_price.tolist(),
            "load": self.load.tolist(),
            "fr_request": self.fr_request.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PeriodRealization":
        return cls(d["energy_price"], d["fr_price"], d["load"], d["fr_request"])


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ScenarioPool:
    """Finite support: K realization templates with probabilities."""

    support: tuple
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        w = _frozen(self.weights)
        object.__setattr__(self, "weights", w)
        if len(self.support) == 0:
            raise ValueError("pool needs at least one realization")
        if w.size != len(self.support):
            raise ValueError("one weight per support point required")
        if not (np.isfinite(w).all() and (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be finite, nonnegative and sum to 1")
        n = self.support[0].n_steps
        if any(d.n_steps != n for d in self.support):
            raise ValueError("all support points must share the period length")

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def n_steps(self) -> int:
        return self.support[0].n_steps


def stream(seed: int) -> np.random.Generator:
    """Counter-based RNG stream; distinct seeds give independent streams."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def sample_period(pool: ScenarioPool, rng: np.random.Generator) -> PeriodRealization:
    """Draw one i.i.d. realization (an actual support member, not a copy)."""
    k = int(rng.choice(pool.size, p=pool.weights))
    return pool.support[k]


@dataclass(frozen=True)
class ForecastModel:
    """Multiplicative lognormal forecast errors with a private stream.

    sigma = 0 reproduces the truth exactly (perfect forecast).  Each
    call draws fresh factors, so successive periods get independent
    errors; the stream is owned, replayable from the seed.
    """

    noise_sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        object.__setattr__(self, "_rng", stream(self.seed))

    def make_forecast(self, truth: PeriodRealization) -> PeriodRealization:
        if self.noise_sigma == 0.0:
            return truth
        rng = self._rng
        n1 = truth.energy_price.size

        def bump(arr):
            return arr * np.exp(self.noise_sigma * rng.standard_normal(n1))

        return PeriodRealization(
            energy_price=bump(truth.energy_price),
            fr_price=bump(truth.fr_price),
            load=bump(truth.load),
            fr_request=np.clip(bump(truth.fr_request), 0.0, 1.0),
        )


def collapse(days) -> tuple[list, list]:
    """Distinct realization classes in first-seen order, with their counts.

    Days with equal ``key`` are one class; the first such day stands for it.
    """
    seen: dict = {}
    for d in days:
        seen.setdefault(d.key, [d, 0])[1] += 1
    return [d for d, _ in seen.values()], [n for _, n in seen.values()]


# ---------------------------------------------------------------------------
# file I/O


def load_csv(path) -> list:
    """Read hourly rows into one realization per day.

    Schema: header ``hour,energy_price,fr_price,load,fr_request``; a new
    day starts at every row with hour 0 and all days must have the same
    row count n.  Each period gets n+1 samples: sample n is hour 0 of
    the next day, and the final day wraps to its own hour 0.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise ValueError(f"{path}: header must be {','.join(CSV_HEADER)}, got {','.join(header)}")
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ValueError(f"{path}:{i}: expected 5 columns, got {len(row)}")
            try:
                vals = [float(x) for x in row]
            except ValueError as exc:
                raise ValueError(f"{path}:{i}: {exc}") from None
            for name, v in zip(CSV_HEADER[1:4], vals[1:4]):
                if not 0.0 <= v < np.inf:  # also refuses NaN
                    raise ValueError(f"{path}:{i}: {name} {v} must be finite and nonnegative")
            if not 0.0 <= vals[4] <= 1.0:
                raise ValueError(f"{path}:{i}: fr_request {vals[4]} outside [0, 1]")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    starts = [i for i, r in enumerate(rows) if r[0] == 0.0]
    if not starts or starts[0] != 0:
        raise ValueError(f"{path}: first row must have hour 0")
    starts.append(len(rows))
    lengths = {b - a for a, b in zip(starts, starts[1:])}
    if len(lengths) != 1:
        raise ValueError(f"{path}: unequal day lengths {sorted(lengths)}")

    periods = []
    for d, (a, b) in enumerate(zip(starts, starts[1:])):
        nxt = rows[starts[d + 1]] if d + 1 < len(starts) - 1 else rows[a]
        block = rows[a:b] + [nxt]
        cols = list(zip(*block))
        periods.append(
            PeriodRealization(
                energy_price=cols[1], fr_price=cols[2], load=cols[3], fr_request=cols[4]
            )
        )
    return periods


def save_pool(pool: ScenarioPool, path, seed: int | None = None) -> None:
    doc = {
        "templates": [d.to_dict() for d in pool.support],
        "weights": pool.weights.tolist(),
    }
    if seed is not None:
        doc["seed"] = seed
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_pool(path) -> ScenarioPool:
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("templates", "weights"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    support = []
    for i, t in enumerate(doc["templates"]):
        for key in ("energy_price", "fr_price", "load", "fr_request"):
            if key not in t:
                raise ValueError(f"{path}: template {i}: missing key {key!r}")
        support.append(PeriodRealization.from_dict(t))
    return ScenarioPool(support=tuple(support), weights=doc["weights"])


# ---------------------------------------------------------------------------
# synthetic data


# The synthetic day: load shape, prices ($/kWh, $/kW) and scenario spread.
LOAD_SWING = 0.6
PEAK_HOUR_FRAC = 0.55
PRICE_NIGHT = 0.05
PRICE_DAY = 0.25
FR_PRICE = 0.04
FR_REQUEST_RANGE = (0.1, 0.4)
SCALE_SPREAD = 0.15


def synthetic_pool(
    n_steps: int = 24,
    n_scenarios: int = 5,
    seed: int = 0,
    base_load: float = 500.0,
) -> ScenarioPool:
    """Equal-weight finite support from a daily shape and scale factors.

    Load is a sinusoid plus a midday peak bump; the energy price is
    two-tier (day tier on the middle half of the period).  Scenario k
    scales prices and loads by its own factor drawn within
    1 +/- SCALE_SPREAD and draws a constant regulation-request fraction
    from ``FR_REQUEST_RANGE``.
    """
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    rng = stream(seed)
    t = np.arange(n_steps + 1)
    phase = 2.0 * math.pi * t / max(n_steps, 1)
    shape = 1.0 + LOAD_SWING * (0.6 * np.sin(phase - 0.5 * math.pi))
    peak_t = PEAK_HOUR_FRAC * n_steps
    shape += LOAD_SWING * 0.8 * np.exp(-0.5 * ((t - peak_t) / (0.12 * n_steps + 0.5)) ** 2)
    day = (t >= 0.25 * n_steps) & (t <= 0.75 * n_steps)
    price = np.where(day, PRICE_DAY, PRICE_NIGHT).astype(float)

    support = []
    for _ in range(n_scenarios):
        s_load = 1.0 + SCALE_SPREAD * float(rng.uniform(-1.0, 1.0))
        s_price = 1.0 + SCALE_SPREAD * float(rng.uniform(-1.0, 1.0))
        alpha = float(rng.uniform(*FR_REQUEST_RANGE))
        support.append(
            PeriodRealization(
                energy_price=price * s_price,
                fr_price=np.full(n_steps + 1, FR_PRICE * s_price),
                load=base_load * shape * s_load,
                fr_request=np.full(n_steps + 1, alpha),
            )
        )
    weights = np.full(n_scenarios, 1.0 / n_scenarios)
    return ScenarioPool(support=tuple(support), weights=weights)
