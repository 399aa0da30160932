"""Transformations of a finite set {0, ..., n-1} under composition.

A transformation is stored as its image list: [i0, i1, ..., i_{n-1}] maps
state k to i_k.  Composition follows word order: the action of a word uv is
the action of u followed by the action of v, so compose(f, s) applies f
first and s second.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import FormatError, SizeMismatchError

__all__ = [
    "Transformation",
    "compose",
    "identity",
    "cycle",
    "singular",
    "transposition",
    "constant",
    "parse_transformation",
]


@dataclass(frozen=True)
class Transformation:
    """A total map of {0..n-1} into itself."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if not images:
            raise ValueError("a transformation needs at least one state")
        n = len(images)
        for k, i in enumerate(images):
            if not isinstance(i, int) or not 0 <= i < n:
                raise ValueError(f"image of state {k} is {i!r}, not in 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, state: int) -> int:
        return self.images[state]

    def then(self, other: Transformation) -> Transformation:
        """self followed by other (the action of a concatenated word)."""
        if other.n != self.n:
            raise SizeMismatchError(
                f"cannot compose transformations of {self.n} and {other.n} states"
            )
        o = other.images
        return Transformation(tuple(o[i] for i in self.images))

    def is_permutation(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def is_identity(self) -> bool:
        return all(i == k for k, i in enumerate(self.images))

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"


def compose(first: Transformation, second: Transformation) -> Transformation:
    """Word-order composition: compose(f, s)(q) == s(f(q))."""
    return first.then(second)


def _check_state(n: int, i: int, role: str) -> None:
    if not 0 <= i < n:
        raise ValueError(f"{role} {i} out of range 0..{n - 1}")


def identity(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


def cycle(n: int, lo: int, hi: int) -> Transformation:
    """Cyclic shift of the block lo..hi (hi wraps to lo); fixes the rest.

    cycle(n, i, i) is the identity.
    """
    _check_state(n, lo, "cycle start")
    _check_state(n, hi, "cycle end")
    if lo > hi:
        raise ValueError(f"cycle start {lo} exceeds end {hi}")
    images = list(range(n))
    for k in range(lo, hi):
        images[k] = k + 1
    images[hi] = lo
    return Transformation(tuple(images))


def singular(n: int, i: int, j: int) -> Transformation:
    """Send i to j, fix everything else (the 'i choose j' map)."""
    _check_state(n, i, "source state")
    _check_state(n, j, "target state")
    images = list(range(n))
    images[i] = j
    return Transformation(tuple(images))


def transposition(n: int, i: int, j: int) -> Transformation:
    """Swap i and j, fix everything else."""
    _check_state(n, i, "state")
    _check_state(n, j, "state")
    images = list(range(n))
    images[i], images[j] = j, i
    return Transformation(tuple(images))


def constant(n: int, i: int) -> Transformation:
    """Send every state to i."""
    _check_state(n, i, "target state")
    return Transformation((i,) * n)


def parse_transformation(text: str) -> Transformation:
    """Parse the bracket rendering "[i0,i1,...]" (whitespace tolerated)."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise FormatError(f"expected bracketed image list, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise FormatError("empty image list")
    try:
        images = tuple(int(p) for p in body.split(","))
    except ValueError as exc:
        raise FormatError(f"non-integer entry in {text!r}") from exc
    try:
        return Transformation(images)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
