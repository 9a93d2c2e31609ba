"""Trace-form entropies S_f(rho) = sum_i f(p_i) for concave f with f(0)=f(1)=0.

Four families are implemented:

* ``von_neumann``   f(p) = -p ln p
* ``tsallis``       f(p) = (p - p^q)/(q - 1), concave for every q > 0
* ``peaked``        f(p) = K_t(p - a) - (1-p) K_t(-a) - p K_t(1-a) built from
  the log-cosh kernel K_t(x) = -ln(cosh(t x))/(2 t); its maximum sits near an
  adjustable point a in (0, 1) and sharpens as t grows
* ``peaked_limit``  the t -> infinity form, f(p) = p(1-a) for p <= a and
  a(1-p) for p >= a

A negative conditional difference S_f(rho) - S_f(rho_reduced) certifies
entanglement for any such f.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteDensity, partial_trace
from .hermitian import Spectrum, eigenvalues

LN2 = float(np.log(2.0))
DOMAIN_TOL = 1e-12
SUM_TOL = 1e-8

_KINDS = ("von_neumann", "tsallis", "peaked", "peaked_limit")


def _log_cosh(z: np.ndarray) -> np.ndarray:
    """ln cosh(z), stable for any magnitude of z.

    For small |z| uses log1p(2 sinh^2(z/2)) which has no cancellation; for
    large |z| uses |z| - ln 2 + log1p(exp(-2|z|)) to avoid cosh overflow.
    """
    az = np.abs(np.asarray(z, dtype=float))
    big = az > 30.0
    safe = np.where(big, 0.0, az)
    small_branch = np.log1p(2.0 * np.sinh(safe / 2.0) ** 2)
    capped = np.where(big, az, 3.0)
    big_branch = capped - LN2 + np.log1p(np.exp(-2.0 * np.minimum(capped, 360.0)))
    return np.where(big, big_branch, small_branch)


def log_cosh_kernel(x, t: float) -> np.ndarray:
    """K_t(x) = -ln(cosh(t x)) / (2 t); smooth, concave, -> -|x|/2 as t grows."""
    return -_log_cosh(t * np.asarray(x, dtype=float)) / (2.0 * t)


def _tsallis_q(q) -> np.ndarray:
    """Tsallis indices as an array; every one must be finite and > 0."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q) & (q > 0.0)):
        raise ValueError("tsallis requires finite q > 0")
    return q


def _peak_alpha(alpha) -> np.ndarray:
    """Peak locations as an array; every one must lie in [0, 1]."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all((alpha >= 0.0) & (alpha <= 1.0)):
        raise ValueError("peaked families require 0 <= alpha <= 1")
    return alpha


def _peak_t(t) -> np.ndarray:
    """Peak sharpness values as an array; every one must be finite and > 0."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0.0)):
        raise ValueError("peaked requires finite t > 0")
    return t


@dataclass(frozen=True)
class EntropicFamily:
    """Descriptor of one concave f. Use the classmethod constructors."""

    kind: str
    q: float | None = None
    alpha: float | None = None
    t: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown entropy kind {self.kind!r}")
        # the array checks read a missing parameter (None) as NaN and reject it
        if self.kind == "tsallis":
            _tsallis_q(self.q)
        if self.kind in ("peaked", "peaked_limit"):
            _peak_alpha(self.alpha)
        if self.kind == "peaked":
            _peak_t(self.t)

    @classmethod
    def von_neumann(cls) -> "EntropicFamily":
        return cls("von_neumann")

    @classmethod
    def tsallis(cls, q: float) -> "EntropicFamily":
        return cls("tsallis", q=float(q))

    @classmethod
    def peaked(cls, alpha: float, t: float) -> "EntropicFamily":
        return cls("peaked", alpha=float(alpha), t=float(t))

    @classmethod
    def peaked_limit(cls, alpha: float) -> "EntropicFamily":
        return cls("peaked_limit", alpha=float(alpha))

    @property
    def label(self) -> str:
        if self.kind == "von_neumann":
            return "von-neumann"
        if self.kind == "tsallis":
            return f"tsallis[q={self.q:g}]"
        if self.kind == "peaked":
            return f"peaked[alpha={self.alpha:g},t={self.t:g}]"
        return f"peaked-limit[alpha={self.alpha:g}]"


def f_eval(family: EntropicFamily, p):
    """Evaluate f on probabilities p (scalar or array) in [0, 1].

    Values outside [0, 1] by more than DOMAIN_TOL raise; values inside the
    tolerance band are clipped. f(0) = f(1) = 0 holds exactly for every
    family (by continuous extension where needed).
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < -DOMAIN_TOL) or np.any(arr > 1.0 + DOMAIN_TOL):
        bad = arr[(arr < -DOMAIN_TOL) | (arr > 1.0 + DOMAIN_TOL)]
        raise ValueError(f"probability outside [0,1]: {bad.flat[0]!r}")
    arr = np.clip(arr, 0.0, 1.0)
    out = _f_eval_clipped(family, arr)
    if np.ndim(p) == 0:
        return float(out)
    return out


def _von_neumann_terms(p: np.ndarray) -> np.ndarray:
    """-p ln p for clipped p, with 0 ln 0 = 0."""
    positive = p > 0.0
    safe = np.where(positive, p, 1.0)
    return -safe * np.log(safe) * positive


def _tsallis_terms(q, p: np.ndarray) -> np.ndarray:
    """f_q(p) = (p - p^q)/(q - 1) for clipped p, broadcasting q against p.

    q = 1 gives the von Neumann term -p ln p. Within 1e-6 of q = 1 the
    difference p - p^q cancels, so those q use -p expm1((q-1) ln p)/(q-1).
    """
    qm1 = q - 1.0
    near = np.abs(qm1) < 1e-6
    if not near.any():
        return (p - p**q) / qm1
    exact = qm1 == 0.0
    positive = p > 0.0
    safe = np.where(positive, p, 1.0)
    series = -safe * np.expm1(qm1 * np.log(safe)) / np.where(exact, 1.0, qm1) * positive
    small = np.where(exact, _von_neumann_terms(p), series)
    if near.all():
        return small
    return np.where(near, small, (p - p**q) / np.where(near, 1.0, qm1))


def _peaked_terms(alpha: np.ndarray, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Peaked-family f(p) for clipped p, broadcasting alpha, t and p."""
    return (
        log_cosh_kernel(p - alpha, t)
        - (1.0 - p) * log_cosh_kernel(-alpha, t)
        - p * log_cosh_kernel(1.0 - alpha, t)
    )


def _f_eval_clipped(family: EntropicFamily, arr: np.ndarray) -> np.ndarray:
    if family.kind == "von_neumann":
        return _von_neumann_terms(arr)
    if family.kind == "tsallis":
        return _tsallis_terms(family.q, arr)
    if family.kind == "peaked":
        return _peaked_terms(family.alpha, family.t, arr)
    # peaked_limit: collapses to 0 identically at alpha in {0, 1}
    a = family.alpha
    if a == 0.0 or a == 1.0:
        return np.zeros_like(arr)
    return np.where(arr <= a, arr * (1.0 - a), a * (1.0 - arr))


def probabilities(spectrum: Spectrum) -> np.ndarray:
    """The eigenvalues of a density spectrum, checked and clipped to [0, 1].

    The spectrum must sum to 1 and have no weight below -SUM_TOL; the
    batched kernels below take their spectra in this form.
    """
    values = spectrum.values
    if abs(spectrum.trace - 1.0) > SUM_TOL:
        raise ValueError(f"spectrum sums to {spectrum.trace!r}, expected 1")
    if values[-1] < -SUM_TOL:
        raise ValueError(f"spectrum has negative weight {values[-1]!r}")
    return np.clip(values, 0.0, 1.0)


def tsallis_differences(full: np.ndarray, reduced: np.ndarray, qs) -> np.ndarray:
    """S_q(full) - S_q(reduced) for every q of ``qs``, shape (..., K).

    ``full`` (..., D) and ``reduced`` (..., d) hold spectra in the form
    ``probabilities`` returns, one row per point when stacked; ``qs``
    (..., K) broadcasts against their leading axes, so a (K,) grid is
    evaluated on every point and a (P, 1) column gives each point its own q.
    Every q must be finite and > 0.
    """
    return tsallis_differences_unchecked(full, reduced, _tsallis_q(qs))


def tsallis_differences_unchecked(
    full: np.ndarray, reduced: np.ndarray, qs: np.ndarray
) -> np.ndarray:
    """``tsallis_differences`` without the check on q: for a float array of q
    values already known to be finite and > 0, such as points inside the
    range of a checked grid."""
    probs = np.concatenate((full, reduced), axis=-1)
    return _split_difference(_tsallis_terms(qs[..., :, None], probs[..., None, :]), full.shape[-1])


def _split_difference(terms: np.ndarray, split: int) -> np.ndarray:
    """Sum of the full-spectrum terms (the first ``split`` along the last
    axis) minus the sum of the reduced-spectrum terms."""
    return np.add.reduce(terms[..., :split], axis=-1) - np.add.reduce(terms[..., split:], axis=-1)


def peaked_differences(full: np.ndarray, reduced: np.ndarray, alphas, ts) -> np.ndarray:
    """S_peaked(full) - S_peaked(reduced) on the (alpha, t) lattice, shape (..., A, T).

    ``full`` and ``reduced`` are (stacked) spectra as in
    ``tsallis_differences``; ``alphas`` (..., A) broadcasts against their
    leading axes and ``ts`` is one (T,) schedule. Every alpha must lie in
    [0, 1], every t be finite and > 0.
    """
    probs = np.concatenate((full, reduced), axis=-1)
    terms = _peaked_terms(_peak_alpha(alphas)[..., :, None, None], _peak_t(ts)[:, None],
                          probs[..., None, None, :])
    return _split_difference(terms, full.shape[-1])


def entropy(family: EntropicFamily, spectrum: Spectrum) -> float:
    """S_f = sum_i f(p_i) over a density spectrum (zero eigenvalues allowed)."""
    return float(np.sum(_f_eval_clipped(family, probabilities(spectrum))))


@dataclass(frozen=True)
class ConditionalReport:
    """S_f of the full state against one subsystem, with the sign-preserving
    normalized variant used for plotting."""

    s_rho: float
    s_reduced: float
    difference: float
    normalized: float
    family: EntropicFamily
    side: str


def _normalizer(family: EntropicFamily, full: Spectrum, reduced: Spectrum) -> float:
    if family.kind == "tsallis":
        vals = np.clip(reduced.values, 0.0, 1.0)
        return float(np.sum(vals**family.q))
    if family.kind == "peaked":
        # |trace of the log-cosh kernel shifted to alpha| over the full state;
        # strictly positive except for the exactly uniform spectrum at alpha = 1/D
        return abs(float(np.sum(log_cosh_kernel(full.values - family.alpha, family.t))))
    return 1.0


def conditional_from_spectra(
    family: EntropicFamily, full: Spectrum, reduced: Spectrum, side: str = "A"
) -> ConditionalReport:
    """Conditional difference S_f(full) - S_f(reduced) from known spectra."""
    s_rho = entropy(family, full)
    s_red = entropy(family, reduced)
    diff = s_rho - s_red
    norm = _normalizer(family, full, reduced)
    normalized = diff / norm if norm > 0.0 else 0.0
    return ConditionalReport(s_rho, s_red, diff, normalized, family, side)


def conditional(family: EntropicFamily, rho: BipartiteDensity, side: str = "A") -> ConditionalReport:
    """Conditional difference for a density operator; negative certifies
    entanglement."""
    full = rho.spectrum()
    reduced = eigenvalues(partial_trace(rho, keep=side))
    return conditional_from_spectra(family, full, reduced, side)


def tsallis_q2_limit_check(rho: BipartiteDensity, t_small: float, alpha: float = 0.5) -> float:
    """Max deviation of S_peaked(alpha, t)/(t/4) from the q=2 Tsallis entropy
    over the full state and its A-reduction.

    As t -> 0 the peaked family becomes alpha-independent and proportional to
    the q = 2 Tsallis form; the deviation shrinks as O(t^2).
    """
    if t_small > 1e-2:
        raise ValueError(f"t_small must be <= 1e-2, got {t_small}")
    peaked = EntropicFamily.peaked(alpha, t_small)
    q2 = EntropicFamily.tsallis(2.0)
    full = rho.spectrum()
    reduced = eigenvalues(partial_trace(rho, keep="A"))
    worst = 0.0
    for spec in (full, reduced):
        dev = abs(entropy(peaked, spec) / (t_small / 4.0) - entropy(q2, spec))
        worst = max(worst, dev)
    return worst
