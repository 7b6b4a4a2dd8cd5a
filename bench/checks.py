"""Checks of workload outputs against computations made apart from the program.

Nothing here calls backstep.  Each check rebuilds what it needs from the
definitions (power-law levels ell_n = a n^alpha, the candidate grid in
[N, N + c], the gain product, the schedule lengths) with plain numpy, and
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
import re

import numpy as np

EPS = float(np.finfo(float).eps)
TIGHT = 1e-9          # absolute slack for quantities formed from exact integers


def levels(alpha: float, scale: float, n: int) -> np.ndarray:
    return scale * np.arange(1, n + 1, dtype=float) ** alpha


def candidate_grid(N: int, alpha: float, c: float) -> tuple[np.ndarray, float]:
    """Grid N + c (1 + 2i) / (2 M_N), i < M_N, and its pigeonhole floor c / (2 M_N)."""
    M = math.floor(((N + c) / c) ** (1.0 / (alpha - 1.0))) + 2
    return N + c * (1.0 + 2.0 * np.arange(M)) / (2.0 * M), c / (2.0 * M)


def brute_dist(mu: float, alpha: float, scale: float) -> float:
    """min over all i, j of |lambda_j - lambda_i + mu| for lambda_n = -scale n^alpha.

    Pairs with j <= i give at least mu.  A pair can beat mu only with a level
    difference in (0, 2 mu), and ell_j - ell_i >= ell_j - ell_{j-1}
    >= scale alpha (j-1)^(alpha-1), so every such pair has j below the K used
    here; all pairs up to K are enumerated.
    """
    K = math.floor((2.0 * mu / (scale * alpha)) ** (1.0 / (alpha - 1.0))) + 2
    ell = levels(alpha, scale, K)
    diffs = (ell[None, :] - ell[:, None])[np.triu_indices(K, k=1)]
    return min(mu, float(np.min(np.abs(diffs - mu))))


def certified_choice_errors(N: int, mu: float, dist: float, alpha: float, scale: float,
                            floor: float | None = None) -> list[str]:
    """mu must be a grid point near N that maximises the enumerated distance."""
    grid, grid_floor = candidate_grid(N, alpha, scale)
    dists = np.array([brute_dist(float(g), alpha, scale) for g in grid])
    errs = []
    hit = np.flatnonzero(np.abs(grid - mu) <= TIGHT)
    if hit.size == 0:
        return [f"N={N}: mu={mu!r} is not a point of the candidate grid"]
    d_mu = float(dists[hit[0]])
    if d_mu < float(np.max(dists)) - TIGHT:
        errs.append(f"N={N}: mu={mu!r} has dist {d_mu}, grid maximum is {np.max(dists)}")
    if abs(dist - d_mu) > TIGHT:
        errs.append(f"N={N}: reported dist {dist!r} differs from enumerated {d_mu!r}")
    if dist < grid_floor:
        errs.append(f"N={N}: dist {dist!r} below the floor c/(2 M_N) = {grid_floor!r}")
    if floor is not None and abs(floor - grid_floor) > TIGHT:
        errs.append(f"N={N}: reported floor {floor!r} is not c/(2 M_N) = {grid_floor!r}")
    return errs


# ---------------------------------------------------------------------------
# certify: one select_mu result


def check_certify(N: int, out: tuple, alpha: float, scale: float) -> list[str]:
    """out = (mu, dist, witness_pair, floor) from select_mu on the power law."""
    mu, dist, witness, floor = out
    errs = certified_choice_errors(N, mu, dist, alpha, scale, floor)
    i, j = witness
    ell_i, ell_j = scale * i ** alpha, scale * j ** alpha
    if abs(abs(ell_j - ell_i - mu) - dist) > TIGHT:
        errs.append(f"N={N}: witness pair {witness} gives {abs(ell_j - ell_i - mu)!r}, not dist")
    return errs


# ---------------------------------------------------------------------------
# plain-route synthesis: direct products, dense inverse, dense SVD


def plain_gains(eig: np.ndarray, lam: float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, F) with F_n = prod_{m != n} (1 + lam / (lambda_n - lambda_m)), k_n b_n = -lam F_n."""
    d = eig[:, None] - eig[None, :]
    off = ~np.eye(eig.size, dtype=bool)
    fac = np.ones_like(d)
    fac[off] = 1.0 + lam / d[off]
    F = np.prod(fac, axis=1)
    return -lam * F / b, F


def plain_T(eig: np.ndarray, lam: float, b: np.ndarray, k: np.ndarray) -> np.ndarray:
    """T[p, n] = k_n b_p / (lambda_p - lambda_n - lam)."""
    return b[:, None] * k[None, :] / (eig[:, None] - eig[None, :] - lam)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# sweep: cost-sweep CSV

SWEEP_HEADER = "N,lambda,dist,norm_T,norm_Tinv,k_sup,k_inf,F_inf,fit_exponent"
_FIT = re.compile(r"# fit: log-cost ~ (\S+) \* lambda\^\(1/(\S+)\) \+ (\S+), r2=(\S+)$")


def check_sweep(text: str, bases: list[int], trunc: int, alpha: float, scale: float) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep CSV header is missing or wrong"]
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    notes = [l for l in lines[1:] if l.startswith("#")]
    errs = [f"sweep skipped a point: {l}" for l in notes if l.startswith("# skipped")]
    if [int(r[0]) for r in rows] != list(bases):
        return errs + [f"sweep rows cover N={[r[0] for r in rows]}, expected {list(bases)}"]
    fit = _FIT.match(notes[-1]) if notes else None
    if fit is None:
        return errs + ["sweep CSV has no '# fit:' footer"]
    slope, f_alpha, intercept, r2 = (float(g) for g in fit.groups())

    ell = levels(alpha, scale, trunc)
    eig, b = -ell, np.ones(trunc)
    xs, ys = [], []
    for r in rows:
        N = int(r[0])
        lam, dist, nT, nTi, k_sup, k_inf, F_inf = (float(v) for v in r[1:8])
        errs += certified_choice_errors(N, lam, dist, alpha, scale)
        k, F = plain_gains(eig, lam, b)
        T = plain_T(eig, lam, b, k)
        sv = np.linalg.svd(T, compute_uv=False)
        cond = float(sv[0] / sv[-1])
        nTi_ref = float(np.linalg.svd(np.linalg.inv(T), compute_uv=False)[0])
        # product entries carry ~trunc rounding errors; a dense inverse multiplies them by cond(T)
        tol = 16.0 * trunc * EPS
        depth = min(2 * math.ceil(lam ** (1.0 / alpha)) + 10, trunc)
        for what, got, ref, t in (
                ("norm_T", nT, float(sv[0]), tol),
                ("norm_Tinv", nTi, nTi_ref, tol * cond),
                ("k_sup", k_sup, float(np.max(np.abs(k))), tol),
                ("k_inf", k_inf, float(np.min(np.abs(k))), tol),
                ("F_inf", F_inf, float(np.min(np.abs(F[:depth]))), tol)):
            if not _rel(got, ref) <= t:
                errs.append(f"N={N}: {what}={got!r} vs plain route {ref!r} (rel tol {t:.2e})")
        if float(r[8]) != slope:
            errs.append(f"N={N}: fit_exponent {r[8]} is not the footer slope")
        xs.append(lam ** (1.0 / alpha))
        ys.append(math.log(nT + nTi))

    x, y = np.array(xs), np.array(ys)
    sxx = float(np.sum((x - x.mean()) ** 2))
    ref_slope = float(np.sum((x - x.mean()) * (y - y.mean()))) / sxx
    ref_icpt = float(y.mean() - ref_slope * x.mean())
    ref_r2 = 1.0 - float(np.sum((y - ref_slope * x - ref_icpt) ** 2)) / float(np.sum((y - y.mean()) ** 2))
    if not ref_slope > 0.0 or not ref_r2 >= 0.95:
        errs.append(f"cost law refit fails: slope {ref_slope}, R^2 {ref_r2}")
    if f_alpha != alpha:
        errs.append(f"footer alpha {f_alpha} is not {alpha}")
    for what, got, ref in (("slope", slope, ref_slope), ("intercept", intercept, ref_icpt),
                           ("r2", r2, ref_r2)):
        if abs(got - ref) > 1e-9 * max(1.0, abs(ref)):
            errs.append(f"footer {what} {got!r} does not match the refit {ref!r}")
    return errs


# ---------------------------------------------------------------------------
# schedule: null-control trajectory CSV and manifest JSON

_T_END = re.compile(r"# t_end=(\S+) horizon_gap=(\S+)$")


def check_schedule(kind: str, trajectory: str, manifest: dict, *, scale: float, alpha: float,
                   gamma: float, sigma: float, horizon: float, stages: int, trunc: int,
                   samples: int = 16) -> list[str]:
    errs = []
    for key, want in (("gamma", gamma), ("sigma", sigma), ("horizon", horizon)):
        if manifest.get(key) != want:
            errs.append(f"{kind}: manifest {key}={manifest.get(key)!r}, expected {want!r}")
    st = manifest.get("stages", [])
    if [s["N"] for s in st] != list(range(1, stages + 1)):
        return errs + [f"{kind}: manifest stages {[s['N'] for s in st]} are not 1..{stages}"]
    lams = np.array([s["lambda"] for s in st], dtype=float)

    for k, lam in enumerate(lams, start=1):
        lo = k ** gamma
        if not lo <= lam <= lo + scale:
            errs.append(f"{kind}: stage {k} lambda {lam!r} outside [k^gamma, k^gamma + c]")
        base = math.ceil(lo - 1e-9)
        if kind == "self_adjoint":
            errs += [f"{kind}: stage {k}: {e}" for e in
                     certified_choice_errors(base, float(lam), brute_dist(float(lam), alpha, scale),
                                             alpha, scale)]
        elif lam != base + 0.5:
            errs.append(f"{kind}: stage {k} lambda {lam!r} is not N + 1/2 = {base + 0.5}")

    ratio = gamma / sigma
    L_sigma = math.fsum(lams ** (-1.0 / sigma)) + stages ** (1.0 - ratio) / (ratio - 1.0)
    deltas = (horizon / L_sigma) * lams ** (-1.0 / sigma)
    starts = np.concatenate([[0.0], np.cumsum(deltas)[:-1]])
    for k, (s, d, t0) in enumerate(zip(st, deltas, starts), start=1):
        if _rel(s["delta"], d) > 1e-12:
            errs.append(f"{kind}: stage {k} delta {s['delta']!r}, definition gives {d!r}")
        if abs(s["t_start"] - t0) > 1e-12:
            errs.append(f"{kind}: stage {k} t_start {s['t_start']!r}, running sum gives {t0!r}")

    lines = trajectory.splitlines()
    body = [l for l in lines[1:] if not l.startswith("#")]
    feet = [l for l in lines if l.startswith("#")]
    if not lines or lines[0] != "t,norm_H,norm_s,u" or len(body) != stages * samples + 1 \
            or len(feet) != 2:
        return errs + [f"{kind}: trajectory has {len(body)} rows, expected {stages * samples + 1}"]
    t_col = np.array([float(r.split(",")[0]) for r in body])
    norm = np.array([float(r.split(",")[1]) for r in body])
    if not np.all(np.isfinite(norm)):
        errs.append(f"{kind}: non-finite norm in the trajectory")
    want_t = np.append((starts[:, None] + deltas[:, None] * np.arange(samples) / samples).ravel(),
                       float(np.sum(deltas)))
    if np.max(np.abs(t_col - want_t)) > 1e-12:
        errs.append(f"{kind}: sample times do not follow the schedule")
    ratio_line = re.match(r"# final_ratio=(\S+)$", feet[0])
    if ratio_line is None or _rel(float(ratio_line.group(1)), norm[-1] / norm[0]) > 1e-12:
        errs.append(f"{kind}: final_ratio footer does not match the trajectory")
    tail = _T_END.match(feet[1])
    if tail is None:
        return errs + [f"{kind}: trajectory lacks the t_end footer"]
    t_end, gap = float(tail.group(1)), float(tail.group(2))
    if abs(t_end - float(np.sum(deltas))) > 1e-12 or abs(t_end + gap - horizon) > 1e-12:
        errs.append(f"{kind}: t_end {t_end!r} + gap {gap!r} is not the horizon {horizon!r}")

    # stage k maps y to T^-1 e^{(A - lambda)delta} T y, and |e^{(A - lambda) delta}| <= e^{-lambda delta}
    # the schedule's documented truncation: at least 4 lambda^(1/alpha) modes
    N = max(trunc, 4 * math.ceil(float(np.max(lams)) ** (1.0 / alpha)))
    ell = levels(alpha, scale, N)
    eig = -ell if kind == "self_adjoint" else -1j * ell
    b = np.ones(N)
    for k, (lam, d) in enumerate(zip(lams, deltas), start=1):
        k_gain, _ = plain_gains(eig, float(lam), b)
        sv = np.linalg.svd(plain_T(eig, float(lam), b, k_gain), compute_uv=False)
        bound = float(sv[0] / sv[-1]) * math.exp(-lam * d)
        grew = norm[k * samples] / norm[(k - 1) * samples]
        if grew > bound * (1.0 + 1e-6):
            errs.append(f"{kind}: stage {k} changed the norm by {grew!r}, above cond(T) e^(-lambda delta)"
                        f" = {bound!r}")
    return errs
