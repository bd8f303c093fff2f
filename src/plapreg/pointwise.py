"""Pointwise maps for the regularized p-Dirichlet integrand.

Everything here is a closed-form function of a vector w (and parameters),
vectorized over leading axes: w has shape (..., n) and scalar outputs have
shape (...).  The building block is

    l_eps(w)    = (eps^2 + |w|^2)^(1/2)
    L_eps(w)    = l_eps(w)^p / p
    alpha_s(w)  = l_eps(w)^(s-1) w
    beta(w)     = |w|^(theta-1) w      (inverse of alpha at eps = 0, s = 1/theta)

plus the coercivity constant and integrand lower bound used by the a priori
second-derivative estimate, exposed as checkable value pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS_MAX",
    "PLapParams",
    "sq_norm",
    "l_eps",
    "L_eps",
    "flux_weight",
    "grad_L_eps",
    "hess_L_eps",
    "alpha_s",
    "beta_theta",
    "monotonicity_gap",
    "coercivity_constant",
    "integrand_lower_bound_check",
]

# the largest eps whose square is finite: l_eps squares eps
EPS_MAX = float(np.sqrt(np.finfo(float).max))


def sq_norm(w) -> np.ndarray:
    """|w|^2 over the last axis, shape (...).

    Summed component by component: the additions of
    np.sum(np.square(w), axis=-1) in its order, at a tenth of its cost on a
    225 x 225 x 2 array (a reduction over a length-2 axis is slow).
    """
    w = np.asarray(w, dtype=float)
    out = w[..., 0] * w[..., 0]
    for k in range(1, w.shape[-1]):
        out = out + w[..., k] * w[..., k]
    return out


def l_eps(w, eps) -> np.ndarray:
    """(eps^2 + |w|^2)^(1/2); satisfies max(eps, |w|) <= l_eps <= eps + |w|."""
    return np.sqrt(np.square(eps) + sq_norm(w))


def L_eps(w, eps, p, *, l=None) -> np.ndarray:
    """l_eps(w)^p / p; l, if given, is l_eps(w, eps)."""
    return (l_eps(w, eps) if l is None else l) ** p / p


def flux_weight(w, eps, p, *, l=None) -> np.ndarray:
    """l_eps(w)^(p-2), shape (...): the weight of w in grad L_eps and of I in
    its Hessian; l, if given, is l_eps(w, eps)."""
    return (l_eps(w, eps) if l is None else l) ** (np.asarray(p, dtype=float) - 2.0)


def grad_L_eps(w, eps, p, *, lp2=None) -> np.ndarray:
    """Gradient l_eps(w)^(p-2) w, shape (..., n); lp2, if given, is
    flux_weight(w, eps, p) and is not computed again."""
    w = np.asarray(w, dtype=float)
    return (flux_weight(w, eps, p) if lp2 is None else lp2)[..., None] * w


def hess_L_eps(w, eps, p, *, l=None, lp2=None) -> np.ndarray:
    """Hessian l^(p-2) I + (p-2) l^(p-4) w w^T, shape (..., n, n).

    Symmetric positive definite for eps > 0.  The point eps = 0, w = 0 is
    singular when p < 4 (the rank-one factor carries l^(p-4)); that case is
    rejected rather than patched.  l and lp2, if given, are l_eps(w, eps)
    and flux_weight(w, eps, p), and are not computed again.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[-1]
    l = l_eps(w, eps) if l is None else l
    p_arr = np.asarray(p, dtype=float)
    if np.any((l == 0.0) & (p_arr < 4.0)):
        raise ValueError("hess_L_eps is singular at w = 0 with eps = 0 and p < 4")
    lsafe = np.where(l > 0.0, l, 1.0)
    diag = flux_weight(w, eps, p, l=l) if lp2 is None else lp2
    rank1 = np.where(l > 0.0, (p_arr - 2.0) * lsafe ** (p_arr - 4.0), 0.0)
    eye = np.eye(n)
    return (
        diag[..., None, None] * eye
        + rank1[..., None, None] * w[..., :, None] * w[..., None, :]
    )


def alpha_s(w, eps, s) -> np.ndarray:
    """Nonlinear gradient transform l_eps(w)^(s-1) w.

    At eps = 0 this is |w|^(s-1) w, extended continuously by 0 at w = 0
    (valid for s > 0), and s-homogeneous: alpha(c w) = c^s alpha(w), c > 0.
    """
    w = np.asarray(w, dtype=float)
    l = l_eps(w, eps)
    lsafe = np.where(l > 0.0, l, 1.0)
    factor = np.where(l > 0.0, lsafe ** (np.asarray(s, dtype=float) - 1.0), 0.0)
    return factor[..., None] * w


def beta_theta(w, theta) -> np.ndarray:
    """|w|^(theta-1) w with 0 mapped to 0.

    Inverse of alpha_s(., 0, 1/theta); theta-Hoelder continuous with
    constant 2 for 0 < theta <= 1.
    """
    w = np.asarray(w, dtype=float)
    return alpha_s(w, 0.0, theta)


def monotonicity_gap(w, v, s) -> np.ndarray:
    """<|w|^(s-1)w - |v|^(s-1)v, w - v> minus (1/2)(|w|^(s-1)+|v|^(s-1))|w-v|^2.

    Nonnegative for s >= 1 up to rounding.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    d = w - v
    lhs = np.sum((alpha_s(w, 0.0, s) - alpha_s(v, 0.0, s)) * d, axis=-1)
    sm1 = np.asarray(s, dtype=float) - 1.0
    rhs = 0.5 * (l_eps(w, 0.0) ** sm1 + l_eps(v, 0.0) ** sm1) * sq_norm(d)
    return lhs - rhs


def coercivity_constant(p, q_proof) -> float:
    """min(1, (p-1)(3-q)) for p >= 2 and 2 <= q < 3; strictly positive.

    Equals 1 + (p-q) - (p-2)(q-2) capped at 1, which is why q >= 3 (where
    positivity fails) is rejected.
    """
    p = float(p)
    q = float(q_proof)
    if not p >= 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if not 2.0 <= q < 3.0:
        raise ValueError(f"q must lie in [2, 3), got {q}")
    return min(1.0, (p - 1.0) * (3.0 - q))


def integrand_lower_bound_check(H, w, eps, p, q_proof):
    """Value pair (lhs, rhs) for the pointwise second-derivative bound.

    With what = w / l_eps(w),

        lhs = l^(p-q) (|H|_F^2 + (p-q)|H what|^2 - (p-2)(q-2) <H what, what>^2)
        rhs = min(1, (p-1)(3-q)) l^(p-q) |H|_F^2

    and lhs >= rhs holds for symmetric H, p >= 2, 2 <= q < 3.  H has shape
    (..., n, n) and w shape (..., n); eps must be positive so the direction
    what is defined everywhere.
    """
    H = np.asarray(H, dtype=float)
    w = np.asarray(w, dtype=float)
    if not np.all(np.asarray(eps, dtype=float) > 0.0):
        raise ValueError("eps must be > 0")
    if not np.allclose(H, np.swapaxes(H, -1, -2), rtol=0, atol=1e-12):
        raise ValueError("H must be symmetric")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q_proof, dtype=float)
    if not (np.all(p >= 2) and np.all(q >= 2) and np.all(q < 3)):
        raise ValueError("need p >= 2 and q in [2, 3)")
    l = l_eps(w, eps)
    what = w / l[..., None]
    Hw = np.einsum("...ij,...j->...i", H, what)
    frob2 = np.sum(np.square(H), axis=(-2, -1))
    lpq = l ** (p - q)
    lhs = lpq * (
        frob2
        + (p - q) * sq_norm(Hw)
        - (p - 2.0) * (q - 2.0) * np.square(np.sum(Hw * what, axis=-1))
    )
    rhs = np.minimum(1.0, (p - 1.0) * (3.0 - q)) * lpq * frob2
    return lhs, rhs


# The parameter regimes, in the order `PLapParams.mode` tries them: each is
# its condition on p, then its condition on s, as (variable, text, test).
_REGIMES = {
    "thm2": (("p", "p >= 3", lambda p, s: p >= 3.0),
             ("s", "(p-1)/2 < s <= p/2", lambda p, s: (p - 1.0) / 2.0 < s <= p / 2.0)),
    "thm3": (("p", "2 <= p < 3", lambda p, s: 2.0 <= p < 3.0),
             ("s", "1 <= s <= p/2", lambda p, s: 1.0 <= s <= p / 2.0)),
}


@dataclass(frozen=True)
class PLapParams:
    """Exponent bundle (p, eps, s, theta).

    The parameter regimes "thm2" (where p - 2s + 2 lies in [2, 3)) and
    "thm3" are defined in `_REGIMES`.  Construction checks only the basic
    ranges (eps at most `EPS_MAX`); :attr:`mode` classifies (p, s) and
    :meth:`require_mode` enforces a regime.
    """

    p: float
    eps: float = 0.0
    s: float = 1.0
    theta: float = 0.5

    def __post_init__(self):
        for name in ("p", "eps", "s", "theta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("p", "eps", "s"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.eps > EPS_MAX:
            raise ValueError(f"eps must be at most {EPS_MAX:.4g}, where eps^2 overflows, "
                             f"got {self.eps}")

    @property
    def mode(self) -> str:
        """"thm2", "thm3", or "outside" depending on (p, s)."""
        for mode, conditions in _REGIMES.items():
            if all(test(self.p, self.s) for _, _, test in conditions):
                return mode
        return "outside"

    def require_mode(self, mode: str) -> "PLapParams":
        """Raise unless (p, s) sits in the requested regime ("auto": any);
        the message names the first condition that fails.  Returns self."""
        if mode != "auto" and mode not in _REGIMES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode not in ("auto", self.mode):
            var, text = next((var, text) for var, text, test in _REGIMES[mode]
                             if not test(self.p, self.s))
            raise ValueError(f"{mode} mode requires {text}, got {var} = {getattr(self, var)}")
        return self
