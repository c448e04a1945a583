"""Piecewise-constant test signals: specification, rendering, simulation.

A signal spec lists change point locations (slice boundaries: the number
of observations before the mean shifts) and one level per segment, with
adjacent levels distinct; a repeat factor concatenates the pattern, with
the junction between copies counting as a change point exactly when the
adjacent levels differ.  The rendered mean (:func:`render_signal`) is the
ground truth: rendered change points and levels are read off it.

The bundled specs (``blocks``, ``fms``, ``mix``, ``teeth10``,
``stairs10``) are transcribed from the standard benchmark suite of
Appendix B of Fryzlewicz (2014), Ann. Statist. 42(6); the classic blocks
pattern goes back to Donoho & Johnstone (1994).  Each has a designated
noise level, recorded in :data:`REFERENCE_NOISE_SD`, at which those
benchmarks are customarily run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "NoiseModel",
    "REFERENCE_NOISE_SD",
    "SignalSpec",
    "SignalSpecError",
    "bundled_signal_names",
    "bundled_signal_path",
    "load_bundled_signal",
    "load_signal_spec",
    "render_signal",
    "save_signal_spec",
    "serialize_signal_spec",
    "simulate",
    "simulate_rep",
]

# Noise standard deviations the benchmark signals are designed for.
REFERENCE_NOISE_SD = {
    "blocks": 10.0,
    "fms": 0.3,
    "mix": 4.0,
    "teeth10": 0.4,
    "stairs10": 0.3,
}


class SignalSpecError(ValueError):
    """Raised when a signal spec file fails to parse or validate."""


@dataclass(frozen=True)
class SignalSpec:
    """Piecewise-constant truth: change points, levels, repeat factor."""

    name: str
    length: int
    changepoints: tuple[int, ...]
    levels: tuple[float, ...]
    repeat: int = 1

    def __post_init__(self):
        cps = self.changepoints
        if self.length < 1:
            raise SignalSpecError(f"{self.name}: length must be >= 1, got {self.length}")
        if self.repeat < 1:
            raise SignalSpecError(f"{self.name}: repeat must be >= 1, got {self.repeat}")
        if len(self.levels) != len(cps) + 1:
            raise SignalSpecError(
                f"{self.name}: need {len(cps) + 1} levels for {len(cps)} change points,"
                f" got {len(self.levels)}"
            )
        if any(cps[i] >= cps[i + 1] for i in range(len(cps) - 1)):
            raise SignalSpecError(f"{self.name}: change points must be strictly increasing")
        if cps and not (1 <= cps[0] and cps[-1] <= self.length - 1):
            raise SignalSpecError(
                f"{self.name}: change points must lie strictly inside (0, {self.length})"
            )
        if not all(np.isfinite(self.levels)):
            raise SignalSpecError(f"{self.name}: levels must be finite")
        if any(a == b for a, b in zip(self.levels[:-1], self.levels[1:])):
            raise SignalSpecError(f"{self.name}: adjacent levels must differ")

    @property
    def rendered_length(self) -> int:
        return self.length * self.repeat

    def rendered_changepoints(self) -> tuple[int, ...]:
        """Change points of the repeated signal: where the rendered mean shifts.

        Copies contribute shifted internal change points; the junction at
        each copy boundary counts exactly when the last and first levels
        differ.
        """
        return tuple((np.flatnonzero(np.diff(render_signal(self))) + 1).tolist())

    def rendered_levels(self) -> tuple[float, ...]:
        """One level per segment of the repeated signal."""
        return tuple(render_signal(self)[[0, *self.rendered_changepoints()]].tolist())

    def jumps(self) -> tuple[float, ...]:
        """Absolute level differences at each rendered change point."""
        return tuple(np.abs(np.diff(self.rendered_levels())).tolist())

    @property
    def min_jump(self) -> float:
        """Smallest jump size (delta star); inf when there is no change."""
        return min(self.jumps(), default=float("inf"))

    @property
    def min_segment_length(self) -> int:
        """Smallest spacing between consecutive break points, boundaries included."""
        bounds = (0,) + self.rendered_changepoints() + (self.rendered_length,)
        return min(b - a for a, b in zip(bounds[:-1], bounds[1:]))


def render_signal(spec: SignalSpec) -> np.ndarray:
    """Mean sequence of length ``spec.length * spec.repeat``."""
    bounds = (0,) + spec.changepoints + (spec.length,)
    lengths = np.diff(bounds)
    base = np.repeat(np.asarray(spec.levels, dtype=float), lengths)
    return np.tile(base, spec.repeat)


@dataclass(frozen=True)
class NoiseModel:
    """Additive iid Gaussian noise with a reproducible seed."""

    sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.sd < 0:
            raise ValueError(f"noise sd must be >= 0, got {self.sd}")


def simulate_rep(spec: SignalSpec, noise: NoiseModel, rep: int) -> np.ndarray:
    """One noisy replicate, seeded with the entropy pair (noise.seed, rep)."""
    f = render_signal(spec)
    if noise.sd == 0:
        return f
    rng = np.random.default_rng([noise.seed, rep])
    return f + noise.sd * rng.standard_normal(len(f))


def simulate(spec: SignalSpec, noise: NoiseModel, reps: int = 1) -> list[np.ndarray]:
    """``reps`` independent noisy series.

    Rep r is seeded with the entropy pair (noise.seed, r) through numpy's
    PCG64 generator (ziggurat Gaussians), so runs are reproducible and reps
    are independent.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return [simulate_rep(spec, noise, r) for r in range(reps)]


def serialize_signal_spec(spec: SignalSpec) -> dict:
    """JSON-ready dict in the documented spec-file schema."""
    return {
        "name": spec.name,
        "T": spec.length,
        "changepoints": list(spec.changepoints),
        "levels": list(spec.levels),
        "repeat": spec.repeat,
    }


def _spec_from_dict(payload: dict, origin: str) -> SignalSpec:
    required = {"name", "T", "changepoints", "levels", "repeat"}
    missing = required - payload.keys()
    if missing:
        raise SignalSpecError(f"{origin}: missing fields {sorted(missing)}")
    try:
        return SignalSpec(
            name=str(payload["name"]),
            length=int(payload["T"]),
            changepoints=tuple(int(c) for c in payload["changepoints"]),
            levels=tuple(float(v) for v in payload["levels"]),
            repeat=int(payload["repeat"]),
        )
    except SignalSpecError as exc:
        raise SignalSpecError(f"{origin}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SignalSpecError(f"{origin}: malformed field ({exc})") from exc


def load_signal_spec(path: Union[str, Path]) -> SignalSpec:
    """Load and validate a signal spec file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SignalSpecError(f"{path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SignalSpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise SignalSpecError(f"{path}: top-level JSON value must be an object")
    return _spec_from_dict(payload, str(path))


def save_signal_spec(spec: SignalSpec, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(serialize_signal_spec(spec), indent=2) + "\n")


def bundled_signal_names() -> list[str]:
    root = resources.files("seedseg") / "data"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_signal_path(name: str) -> Path:
    path = Path(str(resources.files("seedseg") / "data" / f"{name}.json"))
    if not path.exists():
        raise SignalSpecError(f"no bundled signal named {name!r}; have {bundled_signal_names()}")
    return path


def load_bundled_signal(name: str) -> SignalSpec:
    return load_signal_spec(bundled_signal_path(name))
