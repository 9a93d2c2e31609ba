"""Independent references for the benchmark's output checks.

Nothing here imports majorlens: family states are built from their
definition, spectra come from dense numpy eigensolves, and the onset
references are either theory constants or roots found with a plain
dense q grid. The checks compare the program's outputs against these.
"""
from __future__ import annotations

import math

import numpy as np

# Sign convention of the program's detectors: a difference below this counts
# as a detection.
DETECTION_THRESHOLD = -1e-12

# Dense q grid for the Tsallis references; an even count keeps q = 1 out.
_Q = np.geomspace(1e-2, 1e3, 4000)


def family_density(d: int, x) -> np.ndarray:
    """rho = sum_i x_i |0i^-><0i^-| + y I, y = (1 - sum x)/d^2, as a real
    matrix; a stack of them for a stack (N, n) of weight vectors."""
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    y = (1.0 - xs.sum(axis=1)) / d**2
    proj = np.zeros((xs.shape[1], d * d, d * d))
    for i in range(1, xs.shape[1] + 1):
        v = np.zeros(d * d)
        v[i], v[i * d] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
        proj[i - 1] = np.outer(v, v)
    mats = y[:, None, None] * np.eye(d * d) + np.einsum("ni,ijk->njk", xs, proj)
    return mats if np.ndim(x) == 2 else mats[0]


def region_margin(d: int, x) -> np.ndarray:
    """Smallest of y and x_i + y; non-negative exactly inside the region."""
    xs = np.asarray(x, dtype=float)
    y = (1.0 - xs.sum(axis=-1)) / d**2
    return np.minimum(y, (xs + y[..., None]).min(axis=-1))


def sigma(d: int, x) -> np.ndarray:
    """Smallest partial-transpose eigenvalue of a family state, y - |x|/2."""
    xs = np.asarray(x, dtype=float)
    return (1.0 - xs.sum(axis=-1)) / d**2 - np.linalg.norm(xs, axis=-1) / 2.0


def pt_min_eigenvalue(mat: np.ndarray, d_a: int, d_b: int) -> float:
    """Smallest eigenvalue of the partial transpose on B, by reshaping."""
    four = mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1)
    return float(np.linalg.eigvalsh(four.reshape(d_a * d_b, d_a * d_b))[0])


def _spectra(d: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full and reduced spectra of a stack of family states, by eigensolve."""
    mats = family_density(d, xs)
    red = np.einsum("nibjb->nij", mats.reshape(-1, d, d, d, d))
    full = np.clip(np.linalg.eigvalsh(mats), 0.0, 1.0)
    return full, np.clip(np.linalg.eigvalsh(red), 0.0, 1.0)


def vn_difference(d: int, xs) -> np.ndarray:
    """von Neumann S(rho) - S(rho_A) for each row of xs (N, n)."""
    def s(p):
        safe = np.where(p > 0.0, p, 1.0)
        return -np.sum(safe * np.log(safe), axis=-1)

    full, red = _spectra(d, np.atleast_2d(xs))
    return s(full) - s(red)


def tsallis_margin(d: int, xs) -> np.ndarray:
    """Smallest Tsallis S_q(rho) - S_q(rho_A) over the dense q grid, for each
    row of xs (N, n)."""
    def s(p):
        return (p.sum(axis=-1)[:, None]
                - np.sum(p[:, None, :] ** _Q[None, :, None], axis=-1)) / (_Q - 1.0)

    full, red = _spectra(d, np.atleast_2d(xs))
    return np.min(s(full) - s(red), axis=1)


def _flip(detected, lo: float, hi: float, tol: float = 1e-7) -> float:
    start = detected(lo)
    if detected(hi) == start:
        raise ValueError(f"no flip on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if detected(mid) == start:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropic_onset(criterion: str, d: int, direction, lo: float, hi: float) -> float:
    """Onset of von Neumann or Tsallis detection along s * direction."""
    measure = {"vn": vn_difference, "tsallis": tsallis_margin}[criterion]
    u = np.asarray(direction, dtype=float)
    return _flip(lambda s: measure(d, s * u)[0] < DETECTION_THRESHOLD, lo, hi)


# Theory constants of the onset table: (value, tolerance, source).
WERNER = (1.0 / 3.0, 1e-5, "Werner boundary 1/3")
D6_TSALLIS_DIAG = (0.19997, 5e-5, "d=6 diagonal Tsallis onset")
D6_TSALLIS_E = (0.2492, 5e-4, "d=6 sector-e Tsallis onset")
D6_DISORDER_DIAG = (0.1748, 2e-4, "d=6 diagonal disorder onset")
D6_DISORDER_E = (0.2041, 2e-4, "d=6 sector-e disorder onset")


def peres_axis(d: int) -> float:
    return 1.0 / (1.0 + d**2 / 2.0)


def peres_diag(d: int, n: int) -> float:
    return 1.0 / (n + math.sqrt(n) * d**2 / 2.0)


def disorder_axis(d: int) -> float:
    return 1.0 / (1.0 + d**2 / (2.0 * (d - 1.0)))


def disorder_diag(d: int, n: int) -> float:
    return n / (n**2 + d**2 / (2.0 * (d - 1.0)))


# Area fractions of the paper's figures 2 and 5: key -> (value, tolerance).
FIG2_FRACTIONS = {
    "entangled_of_region": (0.87, 0.01),
    "disorder_of_entangled": (0.77, 0.01),
}
FIG5_FRACTIONS = {
    "separable_of_region": (0.026, 0.003),
    "disorder_of_entangled": (0.51, 0.01),
    "first_index_of_region.1": (0.40, 0.01),
}


def random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """A D x D density of the given rank, A A^dagger / trace with Gaussian A."""
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = a @ a.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def region_sample(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """One weight vector drawn uniformly from the positivity region."""
    lo = -1.0 / (d * d - n)
    while True:
        batch = rng.uniform(lo, 1.0, size=(4096, n))
        inside = np.nonzero(region_margin(d, batch) >= 0.0)[0]
        if inside.size:
            return batch[inside[0]]
