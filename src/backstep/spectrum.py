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

# dist_alpha enumeration refuses to walk past this many indices
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
        if self.kind is Kind.SELF_ADJOINT:
            return (-self.levels).astype(complex)
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

    def eigenvalue(self, n: int) -> complex:
        ell = self.level(n)
        return complex(-ell) if self.kind is Kind.SELF_ADJOINT else -1j * ell


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
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1 (got {alpha}); the construction degenerates at alpha <= 1")
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
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1 (got {alpha})")
    vals = np.asarray(eigenvalues, dtype=complex)
    if vals.ndim != 1 or vals.size < 2:
        raise ValueError("need at least two eigenvalues")
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
    if np.min(b) <= 0:
        raise ValueError("b must be bounded below away from zero (all entries positive)")
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
    Self-adjoint: the i = j pairs cap the value at `lam`; any pair beating the
    cap has a positive level difference within (0, lam + c), which confines the
    smaller index to a finite certified range and the larger one to a bisection
    on the monotone level sequence.  The returned minimum is exact.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if model.kind is Kind.SKEW_ADJOINT:
        # |lambda_j - lambda_i + lam| = sqrt((ell_i - ell_j)^2 + lam^2) >= lam
        return DistCertificate(lam=lam, dist=lam, witness_pair=(1, 1))

    c = model.gap_c
    if not c > 0:
        raise CertificationError("model has no positive gap constant; cannot certify distances")
    n_cap = int(((lam + 2.0 * c) / c) ** (1.0 / (model.alpha - 1.0))) + 2
    if n_cap > DEFAULT_INDEX_LIMIT:
        raise ValueError(f"enumeration bound {n_cap} exceeds index limit {DEFAULT_INDEX_LIMIT}")
    if model.tabulated and n_cap > model.n_max:
        raise CertificationError(
            f"Dist_alpha({lam}) needs levels up to index {n_cap}, but the tabulated spectrum "
            f"has {model.n_max}; a certificate would cover only the tabulated modes")

    best = lam
    witness = (1, 1)
    for n in range(1, n_cap + 1):
        target = model.level(n) + lam
        m = _nearest_level_index(model, target, lo=n + 1)
        for cand in (m - 1, m, m + 1):
            if cand <= n:
                continue
            try:
                d = abs((model.level(cand) - model.level(n)) - lam)
            except ValueError:       # tabulated spectrum exhausted
                continue
            if d < best:
                best = d
                witness = (n, cand)
    return DistCertificate(lam=lam, dist=best, witness_pair=witness)


def _nearest_level_index(model: SpectrumModel, target: float, lo: int) -> int:
    """Smallest m >= lo with ell_m >= target (levels are strictly increasing)."""
    if model.tabulated and model.level(model.n_max) < target:
        return model.n_max
    hi = max(lo, 2)
    while model.level(hi) < target:
        hi = min(hi * 2, model.n_max) if model.tabulated else hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if model.level(mid) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def mu_candidates(model: SpectrumModel, N: int) -> tuple[np.ndarray, int, float]:
    """Candidate damping grid in [N, N+c] with its pigeonhole floor.

    M_N = floor(((N + c)/c)^(1/(alpha-1))) + 2, grid points
    N + c (1 + 2i)/(2 M_N) for i = 0..M_N-1, floor c/(2 M_N); at least one grid
    point is guaranteed to satisfy Dist_alpha >= floor.
    """
    if model.kind is not Kind.SELF_ADJOINT:
        raise ValueError("candidate grids apply to self-adjoint models only")
    if N < 1:
        raise ValueError("N must be at least 1")
    c = model.gap_c
    if not c > 0:
        raise CertificationError("model has no positive gap constant")
    M_N = int(math.floor(((N + c) / c) ** (1.0 / (model.alpha - 1.0)))) + 2
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
    kind = Kind(doc["kind"])
    alpha = float(doc["alpha"])
    n_max = int(doc["n_max"])
    b = np.asarray(doc["b"], dtype=float)
    eig = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
    if b.shape != (n_max,) or eig.shape != (n_max,):
        raise ValueError("model document lengths disagree with n_max")
    scale = doc.get("scale")
    if scale is not None:
        law = make_spectrum(kind, alpha, float(scale), n_max, b)
        if np.array_equal(law.eigenvalues, eig):
            return law
    return make_tabulated(kind, alpha, eig, b)
