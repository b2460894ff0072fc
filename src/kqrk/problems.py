"""Synthetic corrupted least-squares instances.

A problem is an overdetermined row-normalized system ``A x* = b_t`` whose
observed right-hand side ``b = b_t + eta + xi`` carries a dense noise
vector ``eta`` and a sparse corruption vector ``xi`` supported on at most
``beta * m`` rows.  Everything is drawn from deterministically split
streams of a single seed, so regenerating any one component never
perturbs the others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import DenseMatrix, _normalize_rows_into, feasible_level

__all__ = [
    "ENSEMBLES",
    "GenSpec",
    "CorruptedProblem",
    "InvalidSpecError",
    "generate",
    "canonical_decomposition",
    "ordered_magnitude",
]

ENSEMBLES = ("gaussian", "uniform")

B_T_TOLERANCE = 1e-10


class InvalidSpecError(ValueError):
    """A generation or experiment spec violates its invariants."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthetic instance.

    ``beta * m`` must be an integer (the corruption support size).
    ``corruption_scale`` bounds the corruption magnitudes, drawn uniformly
    from [0, scale]; ``signed_corruption`` flips each sign with its own
    stream so the unsigned draw is unchanged.  ``noise_stddev`` is the
    per-entry Gaussian noise level; with ``disjoint_support`` the noise is
    zeroed on the corrupted rows.
    """

    m: int
    n: int
    beta: Fraction | float = Fraction(0)
    corruption_scale: float = 0.0
    noise_stddev: float = 1.0
    ensemble: str = "gaussian"
    disjoint_support: bool = False
    signed_corruption: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < self.n:
            raise InvalidSpecError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if self.ensemble not in ENSEMBLES:
            raise InvalidSpecError(f"unknown ensemble {self.ensemble!r}")
        if not 0 <= self.corruption_scale < math.inf:
            raise InvalidSpecError("corruption_scale must be finite and nonnegative")
        if not 0 <= self.noise_stddev < math.inf:
            raise InvalidSpecError("noise_stddev must be finite and nonnegative")
        try:
            beta = feasible_level(self.beta, self.m)
        except ValueError as exc:
            raise InvalidSpecError(f"beta: {exc}") from exc
        object.__setattr__(self, "beta", beta)

    @property
    def corrupted_rows(self) -> int:
        return int(self.beta * self.m)


@dataclass(frozen=True)
class CorruptedProblem:
    """A generated instance together with its ground truth.

    Invariants checked on construction: the system is row-normalized,
    ``b_t`` agrees with ``A x*`` to 1e-10 per entry, and ``b`` equals
    ``b_t + eta + xi`` bit-for-bit (the sum is formed in that order).
    ``row_norms`` optionally carries the pre-normalization row norms so a
    stored bundle can reconstruct the raw draw.
    """

    system: DenseMatrix
    x_star: np.ndarray
    b_t: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    b: np.ndarray
    row_norms: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.system.row_normalized:
            raise InvalidSpecError("problem system must be row-normalized")
        m, n = self.system.shape
        for name in ("b_t", "eta", "xi", "b"):
            if getattr(self, name).shape != (m,):
                raise InvalidSpecError(f"{name} must have shape ({m},)")
        if self.x_star.shape != (n,):
            raise InvalidSpecError(f"x_star must have shape ({n},)")
        predicted = self.system.data @ self.x_star
        if not np.allclose(predicted, self.b_t, rtol=0.0, atol=B_T_TOLERANCE):
            raise InvalidSpecError("b_t does not match A @ x_star to 1e-10")
        if not np.array_equal(self.b, self.b_t + self.eta + self.xi):
            raise InvalidSpecError("b must equal b_t + eta + xi exactly")

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def n(self) -> int:
        return self.system.n

    def corruption_count(self) -> int:
        return int(np.count_nonzero(self.xi))

    def minimal_beta(self) -> Fraction:
        """Smallest feasible corruption level for the realized xi."""
        return Fraction(self.corruption_count(), self.m)


def _draw_matrix(rng: np.random.Generator, spec: GenSpec) -> np.ndarray:
    if spec.ensemble == "gaussian":
        return rng.standard_normal((spec.m, spec.n))
    return rng.random((spec.m, spec.n))


def generate(spec: GenSpec) -> CorruptedProblem:
    """Draw one instance from the spec, deterministically in the seed.

    Streams are split per component: matrix, solution, corruption support,
    corruption values, corruption signs, noise.  The support is a uniform
    size-(beta*m) index set; values are Uniform[0, scale] paired with the
    support in index order.
    """
    root = np.random.SeedSequence(spec.seed)
    streams = [np.random.default_rng(s) for s in root.spawn(6)]
    matrix_rng, solution_rng, support_rng, value_rng, sign_rng, noise_rng = streams

    # The draw is private to this call, so it is normalised in place.
    raw = _draw_matrix(matrix_rng, spec)
    system, norms = _normalize_rows_into(raw, raw)
    x_star = solution_rng.standard_normal(spec.n)
    b_t = system.data @ x_star

    k = spec.corrupted_rows
    support = np.sort(support_rng.choice(spec.m, size=k, replace=False).astype(np.intp))
    values = value_rng.random(k) * spec.corruption_scale
    if spec.signed_corruption:
        values = values * (sign_rng.integers(0, 2, size=k) * 2 - 1)
    xi = np.zeros(spec.m)
    xi[support] = values

    eta = noise_rng.standard_normal(spec.m) * spec.noise_stddev
    if spec.disjoint_support:
        eta[support] = 0.0

    b = b_t + eta + xi
    return CorruptedProblem(
        system=system,
        x_star=x_star,
        b_t=b_t,
        eta=eta,
        xi=xi,
        b=b,
        row_norms=norms,
    )


def canonical_decomposition(
    epsilon: np.ndarray, beta: Fraction | float
) -> tuple[np.ndarray, np.ndarray]:
    """Split a total error vector into (eta, xi) with xi the beta*m largest.

    xi keeps the beta*m entries of largest magnitude (ties resolved toward
    the lowest index) and eta is the exact remainder, so the two supports
    are disjoint and ``eta + xi == epsilon`` bit-for-bit.
    """
    eps = np.asarray(epsilon, dtype=np.float64).ravel()
    m = eps.size
    level = feasible_level(beta, m)
    k = int(level * m)
    # lexsort: primary key descending magnitude, secondary ascending index
    order = np.lexsort((np.arange(m), -np.abs(eps)))
    xi = np.zeros(m)
    top = order[:k]
    xi[top] = eps[top]
    eta = eps - xi
    return eta, xi


def ordered_magnitude(epsilon: np.ndarray, j: int) -> float:
    """Magnitude of the j-th largest-in-magnitude entry (1-indexed)."""
    eps = np.asarray(epsilon, dtype=np.float64).ravel()
    if not 1 <= j <= eps.size:
        raise IndexError(f"j = {j} outside [1, {eps.size}]")
    mags = np.sort(np.abs(eps))
    return float(mags[eps.size - j])
