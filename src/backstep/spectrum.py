"""Eigenvalue/control models and resonance-distance certification.

A model holds the first ``n_max`` eigenvalues of a diagonal self-adjoint or
skew-adjoint operator together with the control coefficients ``b_n`` and the
gap constants used by every downstream bound.  Either kind is described by a
positive, strictly increasing "level" sequence ``ell_n``:

    self-adjoint:  lambda_n = -ell_n        (real, negative, decreasing)
    skew-adjoint:  lambda_n = -i * ell_n    (purely imaginary)

The default law is ``ell_n = a * n**alpha`` with ``alpha > 1``; custom spectra
may be supplied as a tabulated sequence and re-validated with `verify_gaps`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import CertificationError

# dist_alpha and mu_candidates refuse to go past this many indices
DEFAULT_INDEX_LIMIT = 2_000_000


class Kind(str, Enum):
    SELF_ADJOINT = "self_adjoint"
    SKEW_ADJOINT = "skew_adjoint"


@dataclass(frozen=True)
class SpectrumModel:
    kind: Kind
    alpha: float
    scale: float
    n_max: int
    b: np.ndarray                # shape (n_max,), real, bounded away from 0
    levels: np.ndarray           # shape (n_max,), positive strictly increasing
    gap_c: float                 # lower gap constant (certified for all pairs)
    gap_C: float                 # upper constant of the consecutive-gap estimate
    tabulated: bool = False

    @property
    def eigenvalues(self) -> np.ndarray:
        """lambda_n, n <= n_max: float64 if self-adjoint, complex128 if skew-adjoint."""
        if self.kind is Kind.SELF_ADJOINT:
            return -self.levels
        return -1j * self.levels

    def level(self, n: int) -> float:
        """ell_n for arbitrary n >= 1; extends by the power law unless tabulated."""
        if n < 1:
            raise ValueError("indices start at 1")
        if n <= self.n_max:
            return float(self.levels[n - 1])
        if self.tabulated:
            raise ValueError(f"tabulated spectrum has no level {n} (n_max={self.n_max})")
        return self.scale * float(n) ** self.alpha


def make_spectrum(kind: Kind | str,
                  alpha: float,
                  scale: float = 1.0,
                  n_max: int = 64,
                  b_law: Callable[[int], float] | Sequence[float] | None = None) -> SpectrumModel:
    """Build the default power-law model ``ell_n = scale * n**alpha``.

    The gap constants are exact for this law: ``|ell_k - ell_n| >=
    scale * max(k,n)**(alpha-1) * |k-n|`` holds for all pairs with the sharp
    constant ``scale`` (equality is approached as n=1, k -> infinity), and the
    consecutive gap is at most ``scale * (2**alpha - 1) * n**(alpha-1)``.
    """
    kind = Kind(kind)
    if not 1 < alpha < math.inf:
        raise ValueError(f"alpha must exceed 1 and be finite (got {alpha}); "
                         "the construction degenerates at alpha <= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    n = np.arange(1, n_max + 1, dtype=float)
    levels = scale * n ** alpha
    b = _materialize_b(b_law, n_max)
    return SpectrumModel(kind=kind, alpha=float(alpha), scale=float(scale), n_max=n_max,
                         b=b, levels=levels,
                         gap_c=float(scale), gap_C=float(scale * (2.0 ** alpha - 1.0)))


def make_tabulated(kind: Kind | str,
                   alpha: float,
                   eigenvalues: Sequence[complex],
                   b: Sequence[float] | None = None) -> SpectrumModel:
    """Wrap a user-supplied eigenvalue table; gap constants are empirical.

    gap_c is the smaller of the `verify_gaps` consecutive_lower and pairwise
    constants, gap_C its consecutive_upper constant.  Degenerate tables
    (repeated eigenvalues) are accepted here and flagged by `verify_gaps`;
    certified operations will refuse to run on gap_c == 0.
    """
    kind = Kind(kind)
    if not 1 < alpha < math.inf:
        raise ValueError(f"alpha must exceed 1 and be finite (got {alpha})")
    vals = np.asarray(eigenvalues, dtype=complex)
    if vals.ndim != 1 or vals.size < 2:
        raise ValueError("need at least two eigenvalues")
    if not np.all(np.isfinite(vals)):
        raise ValueError("eigenvalues must be finite")
    if kind is Kind.SELF_ADJOINT:
        levels = -vals.real
    else:
        levels = -vals.imag
    if np.min(levels) <= 0:
        raise ValueError("levels must be positive (negative / -i-negative eigenvalues)")
    n_max = vals.size
    b_arr = _materialize_b(b, n_max)
    model = SpectrumModel(kind=kind, alpha=float(alpha), scale=float("nan"), n_max=n_max,
                          b=b_arr, levels=np.asarray(levels, dtype=float),
                          gap_c=math.nan, gap_C=math.nan, tabulated=True)
    report = verify_gaps(model)
    return replace(model,
                   gap_c=min(report.condition("consecutive_lower").constant,
                             report.condition("pairwise").constant),
                   gap_C=report.condition("consecutive_upper").constant)


def _materialize_b(b_law, n_max: int) -> np.ndarray:
    if b_law is None:
        b = np.ones(n_max)
    elif callable(b_law):
        b = np.array([float(b_law(n)) for n in range(1, n_max + 1)])
    else:
        b = np.asarray(b_law, dtype=float)
        if b.shape != (n_max,):
            raise ValueError(f"b sequence must have length {n_max}")
    if not np.all((b > 0) & (b < math.inf)):
        raise ValueError("b must be finite and bounded below away from zero (all entries positive)")
    return b


# ---------------------------------------------------------------------------
# gap verification


@dataclass(frozen=True)
class GapCondition:
    name: str
    constant: float
    worst_pair: tuple[int, int]
    passed: bool


@dataclass(frozen=True)
class GapReport:
    alpha: float
    n_checked: int
    conditions: tuple[GapCondition, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> GapCondition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "n_checked": self.n_checked,
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "constant": c.constant,
                 "worst_pair": list(c.worst_pair), "passed": c.passed}
                for c in self.conditions
            ],
        }


def verify_gaps(model: SpectrumModel, n_check: int | None = None) -> GapReport:
    """Report the empirical best constants of every gap estimate.

    Conditions (all on |lambda_k - lambda_n| = |ell_k - ell_n|):
      consecutive_lower:  c n^(a-1) <= ell_{n+1} - ell_n
      consecutive_upper:  ell_{n+1} - ell_n <= C n^(a-1)
      pairwise:           c k^(a-1) |k-n| <= |ell_k - ell_n|   (k the larger index)
      separation:         |ell_k - ell_n| >= c' |k-n|^a
      control:            0 < b_lo <= b_n <= b_hi

    Report-only: a zero or negative constant marks the condition failed.
    """
    n_check = model.n_max if n_check is None else n_check
    if n_check > model.n_max or n_check < 2:
        raise ValueError("n_check must lie in [2, n_max]")
    lv = model.levels[:n_check]
    alpha = model.alpha
    idx = np.arange(1, n_check, dtype=float)

    consec = np.diff(lv) / idx ** (alpha - 1.0)
    i_lo = int(np.argmin(consec))
    i_hi = int(np.argmax(consec))
    c_lo = float(consec[i_lo])
    c_hi = float(consec[i_hi])

    ks = np.arange(1, n_check + 1, dtype=float)
    diff = np.abs(lv[:, None] - lv[None, :])
    iu = np.triu_indices(n_check, k=1)  # (n, k) with k > n
    pair_norm = (ks[iu[1]] ** (alpha - 1.0)) * (ks[iu[1]] - ks[iu[0]])
    pair_ratios = diff[iu] / pair_norm
    j_pair = int(np.argmin(pair_ratios))
    c_pair = float(pair_ratios[j_pair])

    sep_ratios = diff[iu] / (ks[iu[1]] - ks[iu[0]]) ** alpha
    j_sep = int(np.argmin(sep_ratios))
    c_sep = float(sep_ratios[j_sep])

    b = model.b[:n_check]
    b_lo, b_hi = float(np.min(b)), float(np.max(b))

    conds = (
        GapCondition("consecutive_lower", c_lo, (i_lo + 1, i_lo + 2), c_lo > 0),
        GapCondition("consecutive_upper", c_hi, (i_hi + 1, i_hi + 2), np.isfinite(c_hi) and c_hi > 0),
        GapCondition("pairwise", c_pair, (int(iu[0][j_pair]) + 1, int(iu[1][j_pair]) + 1), c_pair > 0),
        GapCondition("separation", c_sep, (int(iu[0][j_sep]) + 1, int(iu[1][j_sep]) + 1), c_sep > 0),
        GapCondition("control", b_lo, (int(np.argmin(b)) + 1, int(np.argmax(b)) + 1), b_lo > 0 and b_hi < math.inf),
    )
    return GapReport(alpha=alpha, n_checked=n_check, conditions=conds)


# ---------------------------------------------------------------------------
# resonance distance


@dataclass(frozen=True)
class DistCertificate:
    lam: float
    dist: float
    witness_pair: tuple[int, int] | None
    floor: float | None = None

    def require_nonresonant(self) -> "DistCertificate":
        from .errors import ResonanceError
        if self.dist <= 0.0:
            raise ResonanceError(
                f"lambda={self.lam!r} is resonant: eigenvalue-difference witness {self.witness_pair}")
        return self


def dist_alpha(model: SpectrumModel, lam: float) -> DistCertificate:
    """Exact Dist_alpha(lambda) = inf_{i,j} |lambda_j - lambda_i + lambda|.

    Skew-adjoint: the infimum is `lam` itself, attained at i = j.
    Self-adjoint: with D = ell_j - ell_i the distance is |D - lam|.  The i = j
    pairs cap it at `lam`; a pair beats the cap only if 0 < D < 2 lam, so
    j > i, and the certified pairwise gap D >= c j^(alpha-1) (j-i) >=
    c j^(alpha-1) puts both indices below (2 lam / c)^(1/(alpha-1)) < n_cap.
    Pairs with j <= i have D <= 0 and so |D - lam| >= lam (also in floating
    point, where rounding is monotone): they never beat the cap.

    One array pass finds each row's nearest level: `searchsorted` gives the
    first level m at or above ell_i + lam.  The levels strictly increase, so
    |D - lam| does not increase in j below m and does not decrease from m on:
    the nearest level is m - 1 or m, never m + 1.  The result is the first
    minimum of these 2 n_cap candidates in (i, j) order if it is below `lam`,
    else `lam` at (1, 1): the strict-< tie-break of a pair-by-pair scan.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if model.kind is Kind.SKEW_ADJOINT:
        # |lambda_j - lambda_i + lam| = sqrt((ell_i - ell_j)^2 + lam^2) >= lam
        return DistCertificate(lam=lam, dist=lam, witness_pair=(1, 1))

    c = model.gap_c
    if not c > 0:
        raise CertificationError("model has no positive gap constant; cannot certify distances")
    n_cap = _index_bound(2.0 * lam / c, model.alpha, "enumeration bound")
    if model.tabulated and n_cap > model.n_max:
        raise CertificationError(
            f"Dist_alpha({lam}) needs levels up to index {n_cap}, but the tabulated spectrum "
            f"has {model.n_max}; a certificate would cover only the tabulated modes")

    # levels ell_1..ell_K with ell_K >= ell_{n_cap} + lam, then an infinite
    # sentinel that stands for "no level" at index -1 and past the table
    ell = np.append(_levels_through(model, model.level(n_cap) + lam), np.inf)
    m = np.searchsorted(ell, ell[:n_cap] + lam)
    j = np.stack((m - 1, m), axis=1)
    d = np.abs((ell[j] - ell[:n_cap, None]) - lam)
    first = int(np.argmin(d))
    if not d.flat[first] < lam:
        return DistCertificate(lam=lam, dist=lam, witness_pair=(1, 1))
    return DistCertificate(lam=lam, dist=float(d.flat[first]),
                           witness_pair=(first // 2 + 1, int(j.flat[first]) + 1))


def _levels_through(model: SpectrumModel, target: float) -> np.ndarray:
    """ell_1..ell_K with ell_K >= target; the whole table if tabulated."""
    if model.tabulated or model.levels[-1] >= target:
        return model.levels
    top = int((target / model.scale) ** (1.0 / model.alpha)) + 2
    # past n_max, `level` fixes the bits: np.power can differ in the last one
    tail = list(map(model.level, range(model.n_max + 1, top + 1)))
    return np.concatenate((model.levels, tail))


def _index_bound(ratio: float, alpha: float, what: str) -> int:
    """int(ratio^(1/(alpha-1))) + 2, refused past DEFAULT_INDEX_LIMIT."""
    try:
        bound = int(ratio ** (1.0 / (alpha - 1.0))) + 2
    except OverflowError:
        bound = math.inf
    if bound > DEFAULT_INDEX_LIMIT:
        raise ValueError(f"{what} {bound} exceeds index limit {DEFAULT_INDEX_LIMIT}")
    return bound


def mu_candidates(model: SpectrumModel, N: int) -> tuple[np.ndarray, int, float]:
    """Candidate damping grid in [N, N+c] with its pigeonhole floor.

    M_N = floor(((N + c)/c)^(1/(alpha-1))) + 2, grid points
    N + c (1 + 2i)/(2 M_N) for i = 0..M_N-1, floor c/(2 M_N); at least one grid
    point is guaranteed to satisfy Dist_alpha >= floor.  A grid of more than
    DEFAULT_INDEX_LIMIT points is refused before it is allocated.
    """
    if model.kind is not Kind.SELF_ADJOINT:
        raise ValueError("candidate grids apply to self-adjoint models only")
    if N < 1:
        raise ValueError("N must be at least 1")
    c = model.gap_c
    if not c > 0:
        raise CertificationError("model has no positive gap constant")
    M_N = _index_bound((N + c) / c, model.alpha, "candidate grid size")
    i = np.arange(M_N, dtype=float)
    grid = N + c * (1.0 + 2.0 * i) / (2.0 * M_N)
    return grid, M_N, c / (2.0 * M_N)


def select_mu(model: SpectrumModel, N: int) -> tuple[float, DistCertificate]:
    """Best-certified damping parameter near N.

    Self-adjoint: the candidate grid point maximizing Dist_alpha; aborts loudly
    if no point clears the pigeonhole floor (that would falsify the bound the
    grid is built on).  Skew-adjoint: any lambda works; returns N + 1/2.
    """
    if model.kind is Kind.SKEW_ADJOINT:
        mu = N + 0.5
        cert = dist_alpha(model, mu)
        return mu, replace(cert, floor=mu)

    grid, M_N, floor = mu_candidates(model, N)
    best_cert = None
    best_mu = None
    for mu in grid:
        cert = dist_alpha(model, float(mu))
        if best_cert is None or cert.dist > best_cert.dist:
            best_cert, best_mu = cert, float(mu)
    if best_cert.dist < floor:
        raise CertificationError(
            f"no grid point near N={N} clears the certified floor {floor}: "
            f"best dist {best_cert.dist} at mu={best_mu} (M_N={M_N})")
    return best_mu, replace(best_cert, floor=floor)


# ---------------------------------------------------------------------------
# serialization


def model_to_json(model: SpectrumModel) -> str:
    doc = {
        "kind": model.kind.value,
        "alpha": model.alpha,
        "scale": None if model.tabulated else model.scale,
        "n_max": model.n_max,
        "b": [float(x) for x in model.b],
        "eigenvalues": [[float(z.real), float(z.imag)] for z in model.eigenvalues],
    }
    return json.dumps(doc, indent=2) + "\n"


def model_from_json(text: str) -> SpectrumModel:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")

    def field(key, convert):
        try:
            return convert(doc[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"model field {key!r} is malformed: {exc}") from None

    kind = field("kind", Kind)
    alpha = field("alpha", float)
    n_max = field("n_max", int)
    b = field("b", lambda v: np.asarray(v, dtype=float))
    eig = field("eigenvalues", lambda v: np.array([complex(re, im) for re, im in v]))
    if b.shape != (n_max,) or eig.shape != (n_max,):
        raise ValueError("model document lengths disagree with n_max")
    scale = doc.get("scale")
    if scale is not None:
        law = make_spectrum(kind, alpha, field("scale", float), n_max, b)
        if np.array_equal(law.eigenvalues, eig):
            return law
    return make_tabulated(kind, alpha, eig, b)
