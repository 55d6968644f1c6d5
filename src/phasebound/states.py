"""Photon-number states and the two measurement windows.

All types are immutable values; the transforms below return new objects and
never mutate their inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DomainError, NegativeIndexError, ZeroStateError

TWO_PI = 2.0 * np.pi

# norm**2 below this is treated as the zero vector (underflow guard)
_ZERO_NORM_SQ = 1e-300


@dataclass(frozen=True, eq=False)
class FockState:
    """Finite-support state in the photon-number basis.

    ``amplitudes[j]`` is the complex amplitude at photon number ``offset + j``.
    The stored window is dense; leading/trailing zeros are kept as written.
    """

    amplitudes: np.ndarray
    offset: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("amplitudes must be finite")
        if not isinstance(self.offset, (int, np.integer)):
            raise ValueError("offset must be an integer")
        if self.offset < 0:
            raise NegativeIndexError(f"offset {self.offset} < 0")
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "offset", int(self.offset))

    @property
    def size(self) -> int:
        return int(self.amplitudes.size)

    @property
    def indices(self) -> np.ndarray:
        """Photon numbers carried by the stored window."""
        return np.arange(self.offset, self.offset + self.size)

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    @classmethod
    def number_state(cls, n: int) -> "FockState":
        """The basis state with exactly ``n`` photons."""
        return cls(np.array([1.0 + 0.0j]), offset=n)

    @classmethod
    def from_json(cls, obj: Any) -> "FockState":
        """State from a document of ``schemas/state.schema.json``: an object
        with exactly the keys ``offset``, an integer >= 0 (a float with an
        integral value counts), and ``re`` and ``im``, non-empty arrays of
        numbers, where a boolean is not a number.  Raises ValueError on any
        other document, and where the schema cannot: on ``re`` and ``im`` of
        different lengths or amplitudes that are not finite.
        """
        if not isinstance(obj, dict) or set(obj) != {"offset", "re", "im"}:
            raise ValueError("malformed state object: need exactly offset, re and im")
        offset, re, im = obj["offset"], obj["re"], obj["im"]
        if isinstance(offset, float) and offset.is_integer():
            offset = int(offset)
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ValueError(f"malformed state object: offset {offset!r} is not an integer")
        for name, values in (("re", re), ("im", im)):
            if not isinstance(values, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            ):
                raise ValueError(f"malformed state object: {name} is not an array of numbers")
        if len(re) != len(im):
            raise ValueError("re and im must have the same length")
        try:
            amplitudes = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
        except OverflowError as exc:  # an integer beyond the float range
            raise ValueError("amplitudes must be finite") from exc
        return cls(amplitudes, offset=offset)

    def to_json(self) -> dict[str, Any]:
        return {
            "offset": self.offset,
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FockState(offset={self.offset}, amplitudes={self.amplitudes.tolist()})"


@dataclass(frozen=True)
class PhaseWindow:
    """Arc ``[center - width/2, center + width/2)`` on the phase circle.

    ``center`` is normalized into [-pi, pi); ``width`` must lie in [0, 2*pi].
    A window straddling +-pi is understood modulo 2*pi.
    """

    center: float
    width: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.center) or not np.isfinite(self.width):
            raise DomainError("window parameters must be finite")
        if not 0.0 <= self.width <= TWO_PI:
            raise DomainError(f"width {self.width} outside [0, 2*pi]")
        c = (float(self.center) + np.pi) % TWO_PI - np.pi
        object.__setattr__(self, "center", float(c))
        object.__setattr__(self, "width", float(self.width))

    @property
    def bounds(self) -> tuple[float, float]:
        """Unwrapped endpoints (lo, hi); hi - lo == width."""
        h = 0.5 * self.width
        return (self.center - h, self.center + h)


@dataclass(frozen=True)
class NumberWindow:
    """Right-sided photon-number window ``{base, base+1, ..., base+precision}``."""

    base: int
    precision: int

    def __post_init__(self) -> None:
        if not isinstance(self.base, (int, np.integer)) or not isinstance(
            self.precision, (int, np.integer)
        ):
            raise DomainError("window parameters must be integers")
        if self.base < 0:
            raise DomainError(f"base {self.base} < 0")
        if self.precision < 0:
            raise DomainError(f"precision {self.precision} < 0")
        object.__setattr__(self, "base", int(self.base))
        object.__setattr__(self, "precision", int(self.precision))

    @property
    def size(self) -> int:
        return self.precision + 1

    @property
    def top(self) -> int:
        return self.base + self.precision

    def members(self) -> range:
        return range(self.base, self.top + 1)


def normalize(state: FockState) -> FockState:
    """Scale ``state`` to unit norm.

    Raises ZeroStateError when the squared norm underflows to zero.
    """
    n2 = state.norm_squared
    if n2 < _ZERO_NORM_SQ:
        raise ZeroStateError("cannot normalize a zero state")
    return FockState(state.amplitudes / np.sqrt(n2), state.offset)


def phase_shift(state: FockState, theta: float) -> FockState:
    """Multiply the amplitude at photon number n by exp(i*n*theta).

    Norm-preserving; shifting by theta moves the phase distribution by +theta.
    """
    return FockState(state.amplitudes * np.exp(1j * theta * state.indices), state.offset)


def number_shift(state: FockState, m: int) -> FockState:
    """Move the amplitude at photon number n to n + m.

    Raises NegativeIndexError when any stored index would become negative.
    """
    if not isinstance(m, (int, np.integer)):
        raise ValueError("shift must be an integer")
    if state.offset + m < 0:
        raise NegativeIndexError(
            f"shift by {m} would move offset {state.offset} below zero"
        )
    return FockState(state.amplitudes, state.offset + int(m))
