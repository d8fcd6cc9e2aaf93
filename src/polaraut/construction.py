"""Code construction: erasure-channel reliability design, Reed-Muller sets,
and the JSON construction spec shared by the command line tools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .monomials import (
    MAX_VARS,
    Monomial,
    MonomialCode,
    _check_n,
    _plain_int,
    decreasing_closure,
    is_decreasing,
    row_to_monomial,
)

__all__ = [
    "SpecError",
    "bec_bhattacharyya",
    "bhattacharyya_bec_design",
    "rm_code",
    "ConstructionSpec",
]


class SpecError(ValueError):
    """Raised for malformed or inconsistent construction specs."""


def bec_bhattacharyya(n: int, epsilon: float) -> np.ndarray:
    """Bhattacharyya parameters of the 2**n synthetic channels of a BEC.

    Row order matches the polar transform rows.  Each doubling step expands a
    channel with parameter z into the pair (2z - z^2, z^2), the degraded copy
    landing on the even row.
    """
    n = _check_n(n)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {epsilon}")
    z = np.array([epsilon], dtype=np.float64)
    for _ in range(n):
        out = np.empty(2 * z.size, dtype=np.float64)
        out[0::2] = 2.0 * z - z * z
        out[1::2] = z * z
        z = out
    return z


def bhattacharyya_bec_design(epsilon: float, dimension: int, n: int) -> MonomialCode:
    """Pick the `dimension` most reliable rows of a design-BEC(epsilon).

    Ties on the Bhattacharyya value are broken toward the smaller monomial
    (degree, then index sum, then row index) so a tied boundary still yields
    a decreasing set; a tie crossing the selection boundary is logged.
    """
    n = _check_n(n)
    z = bec_bhattacharyya(n, epsilon)
    total = 1 << n
    dimension = _plain_int(dimension)
    if dimension is None or not 1 <= dimension <= total:
        raise ValueError(f"dimension must be an int in 1..{total}")

    def key(row: int) -> tuple[float, int, int, int]:
        f = row_to_monomial(row, n)
        return (z[row], f.degree, sum(f.indices), row)

    ranked = sorted(range(total), key=key)
    picked = ranked[:dimension]
    if dimension < total and z[ranked[dimension - 1]] == z[ranked[dimension]]:
        # Only a tie logs, so only a tie loads logging.
        import logging

        logging.getLogger(__name__).warning(
            "selection boundary tie at z=%g (n=%d, K=%d, eps=%g)",
            z[ranked[dimension - 1]],
            n,
            dimension,
            epsilon,
        )
    code = MonomialCode.from_rows(n, picked)
    if not is_decreasing(code):
        raise RuntimeError(
            "reliability selection produced a non-decreasing set; "
            "this contradicts the erasure-channel ordering"
        )
    return code


def rm_code(r: int, n: int) -> MonomialCode:
    """Reed-Muller code of order r: all monomials of degree at most r."""
    n, r = _check_n(n), _plain_int(r)
    if r is None or not 0 <= r <= n:
        raise ValueError(f"order must be an int in 0..{n}")
    return decreasing_closure([Monomial.from_indices(range(n - r, n))], n)


_KINDS = ("bhattacharyya_bec", "generators", "reed_muller")


@dataclass(frozen=True)
class ConstructionSpec:
    """Declarative code description, loadable from JSON.

    Fields used per kind:
      bhattacharyya_bec: epsilon, dimension
      generators: generator rows (information set is their closure)
      reed_muller: r
    """

    n: int
    kind: str
    epsilon: float | None = None
    dimension: int | None = None
    generators: tuple[int, ...] | None = None
    r: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SpecError(f"unknown construction kind: {self.kind!r}")
        # Each count is kept as the plain int it equals, numpy ints too.
        n = _plain_int(self.n)
        if n is None or not 1 <= n <= MAX_VARS:
            raise SpecError(f"n must be an integer in 1..{MAX_VARS}, got {self.n!r}")
        object.__setattr__(self, "n", n)
        eps = self.epsilon
        if eps is not None and (isinstance(eps, bool) or not isinstance(eps, (int, float))):
            raise SpecError("'epsilon' must be a number")
        for field, name in (("dimension", "K"), ("r", "r")):
            value = getattr(self, field)
            if value is not None and _plain_int(value) is None:
                raise SpecError(f"'{name}' must be an integer")
            object.__setattr__(self, field, value if value is None else _plain_int(value))
        if self.kind == "bhattacharyya_bec":
            if self.epsilon is None or self.dimension is None:
                raise SpecError("bhattacharyya_bec needs 'epsilon' and 'K'")
            if not 0.0 <= self.epsilon <= 1.0:
                raise SpecError(f"epsilon must be in [0, 1], got {self.epsilon}")
            if not 1 <= self.dimension <= 1 << self.n:
                raise SpecError(f"K out of range for n={self.n}: {self.dimension}")
        elif self.kind == "generators":
            if not self.generators:
                raise SpecError("generators kind needs a non-empty 'generators' list")
            rows = tuple(map(_plain_int, self.generators))
            if any(row is None or not 0 <= row < 1 << self.n for row in rows):
                raise SpecError(f"generators must be integers below {1 << self.n}: "
                                f"{self.generators!r}")
            object.__setattr__(self, "generators", rows)
        else:
            if self.r is None or not 0 <= self.r <= self.n:
                raise SpecError(f"reed_muller needs 'r' in 0..{self.n}")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ConstructionSpec":
        if not isinstance(data, dict):
            raise SpecError("construction spec must be a JSON object")
        known = {"n", "kind", "epsilon", "K", "generators", "r"}
        extra = set(data) - known
        if extra:
            raise SpecError(f"unknown spec fields: {sorted(extra)}")
        if "n" not in data or "kind" not in data:
            raise SpecError("construction spec needs 'n' and 'kind'")
        gens = data.get("generators")
        if gens is not None:
            if not isinstance(gens, list):
                raise SpecError("'generators' must be a list of row indices")
            gens = tuple(gens)
        return cls(
            n=data["n"],
            kind=data["kind"],
            epsilon=data.get("epsilon"),
            dimension=data.get("K"),
            generators=gens,
            r=data.get("r"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ConstructionSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def build(self) -> MonomialCode:
        if self.kind == "bhattacharyya_bec":
            assert self.epsilon is not None and self.dimension is not None
            return bhattacharyya_bec_design(self.epsilon, self.dimension, self.n)
        if self.kind == "generators":
            assert self.generators is not None
            gens = [row_to_monomial(row, self.n) for row in self.generators]
            return decreasing_closure(gens, self.n)
        assert self.r is not None
        return rm_code(self.r, self.n)
