"""Variational EM for the marked Hawkes model with latent branching.

The mean-field posterior Q(z) = prod_i Multi(z_i | 1, eta_i) gives the
surrogate objective (coefficient-free ELBO)

    L~ = - sum_s rho[s] T
         - sum_s sum_i A[s, s_i] int_{t_i}^T kappa(t - t_i) dt
         + sum_i eta_i0 log( rho[s_i] f(x_i | t_i, s_i) )
         + sum_i sum_{j<i} eta_ij log( A[s_i, s_j] kappa(t_i - t_j) f(x_i | t_i, s_i, e_j) )
         - sum_i sum_j eta_ij log eta_ij   [+ Gamma log-prior terms]

maximized by block-coordinate ascent with closed-form updates: eta by
normalized posterior weights (`update_eta`, over a `PairStructure`),
(rho, A) by Gamma-posterior means, and (theta, gamma) by maximizing a
Jensen minorant that is tight at the current estimates, so every sweep is
monotone in L~.  Both M-steps and the objective cost O(cells + overlap
pairs + triples); the (theta, gamma) step gathers eta per triple through
its overlap pair (tri_ov), taking the triple's ratio g xt / ((1 - g) theta)
as xt over an S x V table, (1 - g) theta / g, gathered by the triple's key.
`elbo` at the E-step's own parameters sums its normalizers, the
compensator and the prior, which `fit` records as its trace; at other
parameters it adds the posteriors' `weight_shift`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import scatter_sum, xlogy
from .errors import NumericalError, ValidationError
from .layout import PairStructure, structure_for, window_dropped
from .model import EventSequence, ModelParams
from .posterior import VariationalState, same_params, update_eta, weight_shift

__all__ = ["PriorConfig", "FitReport", "update_rho_alpha", "update_theta_gamma", "elbo", "fit"]

THETA_FLOOR = 1e-12
NUMERATOR_FLOOR = 1e-12
GAMMA_FLOOR = 1e-6


@dataclass
class PriorConfig:
    """Independent Gamma priors rho_s ~ Gamma(a_rho[s], b_rho), A[s,:] ~ Gamma(a_alpha[s], b_alpha).

    Maximum-likelihood mode is the improper prior a=1, b=0, under which the
    rho/A updates coincide with the ML closed forms.  Empirical-Bayes mode
    sets a_rho[s] = a_alpha[s] = N_s, b_rho = T/c, b_alpha = T/(1-c) from an
    expected immigrant proportion c, from which `fit`'s default initial
    point takes rho and A as shapes over rates.  A shape array of more than
    one dimension raises ValidationError naming it and its shape, a shape
    that is not positive and finite or a rate that is not nonnegative and
    finite (NaN included) one naming the field and its first such value,
    and c with a zero rate one naming c and that rate.
    """

    a_rho: np.ndarray
    b_rho: float
    a_alpha: np.ndarray
    b_alpha: float
    c: float | None = None

    def __post_init__(self):
        self.a_rho = np.atleast_1d(np.asarray(self.a_rho, dtype=np.float64))
        self.a_alpha = np.atleast_1d(np.asarray(self.a_alpha, dtype=np.float64))
        self.b_rho = float(self.b_rho)
        self.b_alpha = float(self.b_alpha)
        for name in ("a_rho", "a_alpha"):
            shape = getattr(self, name)
            if shape.ndim != 1:
                raise ValidationError(f"prior {name} must be 1-D, not of shape {shape.shape}")
            bad = shape[~((shape > 0) & (shape < np.inf))]  # not shape <= 0, which NaN passes
            if bad.size:
                raise ValidationError(f"prior shapes must be positive and finite, not "
                                      f"{name} = {bad[0]}")
        for name in ("b_rho", "b_alpha"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValidationError(f"prior rates must be nonnegative and finite, not "
                                      f"{name} = {getattr(self, name)}")
        if self.c is not None and not 0 < self.c < 1:
            raise ValidationError("c must lie in (0, 1)")
        if self.c is not None and 0 in (self.b_rho, self.b_alpha):
            zero = " and ".join(f"{n} = 0" for n in ("b_rho", "b_alpha") if getattr(self, n) == 0)
            raise ValidationError(f"prior c = {self.c} needs positive rates, not {zero}")

    @classmethod
    def maximum_likelihood(cls, S: int) -> "PriorConfig":
        return cls(a_rho=np.ones(S), b_rho=0.0, a_alpha=np.ones(S), b_alpha=0.0)

    @classmethod
    def empirical_bayes(cls, events: EventSequence, c: float = 0.1) -> "PriorConfig":
        if not 0 < c < 1:
            raise ValidationError("c must lie in (0, 1)")
        counts = np.bincount(events.sources, minlength=events.S).astype(np.float64)
        shapes = np.maximum(counts, 1.0)  # Gamma shape must stay positive
        return cls(a_rho=shapes, b_rho=events.T / c,
                   a_alpha=shapes, b_alpha=events.T / (1.0 - c), c=c)


@dataclass
class FitReport:
    params: ModelParams
    eta: VariationalState
    elbo_trace: np.ndarray
    iterations: int
    converged: bool
    numerator_clamps: int = 0
    window: float | None = None
    # windowed fits: the largest and the mean share of an event's excitation
    # intensity sum_j A[s_i, s_j] kappa(t_i - t_j) that the window left out,
    # at the returned parameters (None in exact mode)
    window_dropped_max: float | None = None
    window_dropped_mean: float | None = None


def _check_prior(prior: PriorConfig, S: int) -> None:
    """Prior shapes a_rho and a_alpha each hold one value, shared by the
    sources, or S, one per source; any other length raises ValidationError."""
    for name in ("a_rho", "a_alpha"):
        size = getattr(prior, name).size
        if size not in (1, S):
            raise ValidationError(f"prior {name} has length {size}, not 1 or S = {S}")


def update_rho_alpha(events: EventSequence, state: VariationalState,
                     prior: PriorConfig, diag: dict | None = None):
    """M-step for (rho, A): Gamma-posterior means given the responsibilities.

    rho_s = (a_rho[s] - 1 + sum_{i: s_i=s} eta_i0) / (b_rho + T);
    A[s, s'] = (a_alpha[s] - 1 + sum eta_ij over child source s, parent source s')
               / (b_alpha + sum_{i: s_i=s'} (1 - e^{-(T - t_i)/nu})).
    Negative numerators (possible when a < 1) are clamped to a small floor and
    counted in diag["clamped"].  A state built on another events object, or
    prior shapes of a length other than 1 or S, raise ValidationError.
    """
    state.structure.check_built_for(events, "state")
    S = events.S
    _check_prior(prior, S)
    rho_num = prior.a_rho - 1.0 + np.bincount(events.sources, weights=state.eta0,
                                              minlength=S)
    a_num = state.eta_cells + (prior.a_alpha - 1.0)[:, None]
    clamped = int((rho_num < 0).sum() + (a_num < 0).sum())
    if diag is not None:
        diag["clamped"] = diag.get("clamped", 0) + clamped
    rho_num = np.where(rho_num < 0, NUMERATOR_FLOOR, rho_num)
    a_num = np.where(a_num < 0, NUMERATOR_FLOOR, a_num)

    rho = rho_num / (prior.b_rho + events.T)
    a_den = prior.b_alpha + np.bincount(events.sources, weights=state.structure.kint,
                                        minlength=S)
    with np.errstate(invalid="ignore", divide="ignore"):
        A = np.where(a_den[None, :] > 0, a_num / a_den[None, :], 0.0)
    return rho, A


def update_theta_gamma(events: EventSequence, state: VariationalState, current):
    """M-step for (theta, gamma) via the Jensen minorant tight at `current`.

    With xi_{j,v}^(s) = g xt_{j,v} / ((1-g) th[s,v] + g xt_{j,v}) evaluated at
    the current estimates, theta[s, v] oc sum over events of source s of
    x_{i,v} (1 - sum_j eta_ij xi), and gamma = sum eta_ij x_{i,v} xi / sum
    eta_ij x_{i,v}.  Pairs whose parent has an empty mark use the immigrant
    density and carry no information about gamma, so they are excluded from
    its ratio.  A state built on another events object raises
    ValidationError.
    """
    st = state.structure
    st.check_built_for(events, "state")
    theta_hat = np.asarray(current[0], dtype=np.float64)
    gamma_hat = float(current[1])
    S, V = events.S, events.V
    counts = st.counts_by_source
    if gamma_hat == 0.0:
        # xi = 0 identically: theta reduces to raw per-source frequencies and
        # gamma = 0 is a fixed point of the update.
        theta_num = counts.copy()
        gamma_new = 0.0
    else:
        # xi = xt / ((1 - g) theta / g + xt), 1 at a dead token, then the
        # weights eta_ij x_iv xi, in place: at most three triple-length
        # buffers at a time
        xi = ((1.0 - gamma_hat) * theta_hat.ravel() / gamma_hat)[st.tri_key]
        xi += st.tri_xjv
        np.divide(st.tri_xjv, xi, out=xi)
        w = state.eta_overlap[st.tri_ov]
        w *= st.tri_xiv
        w *= xi
        del xi
        theta_num = counts - scatter_sum(st.tri_key, w, S * V).reshape(S, V)
        gamma_num = float(w.sum())
        # sum of eta_ij L_i over the pairs whose parent has a non-empty mark
        lengths = events.lengths
        gamma_den = float(lengths @ (1.0 - state.eta0) - state.eta_empty @ lengths)
        if gamma_den <= 0.0:
            gamma_new = gamma_hat
        else:
            gamma_new = min(max(gamma_num / gamma_den, GAMMA_FLOOR), 1.0 - GAMMA_FLOOR)

    theta_num = np.maximum(theta_num, THETA_FLOOR)
    theta = theta_num / theta_num.sum(axis=1, keepdims=True) if V else theta_num
    return theta, gamma_new


def _compensator_terms(structure: PairStructure, params: ModelParams) -> float:
    events = structure.events
    # a dot product, not T * rho.sum(): the two round differently
    base = float(np.dot(params.rho, np.full(events.S, events.T)))
    col = params.A.sum(axis=0)
    excite = float(np.sum(col[events.sources] * structure.kint, dtype=np.longdouble))
    return base + excite


def _prior_terms(params: ModelParams, prior: PriorConfig | None) -> float:
    if prior is None:
        return 0.0
    _check_prior(prior, params.S)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_rho = float(np.sum(xlogy(prior.a_rho - 1.0, params.rho))
                      - prior.b_rho * params.rho.sum())
        t_a = float(np.sum(xlogy((prior.a_alpha - 1.0)[:, None], params.A))
                    - prior.b_alpha * params.A.sum())
    return t_rho + t_a


def elbo(events: EventSequence, params: ModelParams, state: VariationalState,
         prior: PriorConfig | None = None) -> float:
    """Evaluate L~(Theta, eta) exactly (multinomial coefficient excluded).

    eta is the state's E-step at parameters Theta0, where L~ equals sum_i
    log z_i less the compensator, plus the Gamma log-prior terms when a
    prior is supplied: at parameters equal to Theta0 (`same_params`) that is
    all it sums, so it needs no weights' terms, and `fit` records its trace
    with it.  At other parameters Theta it adds sum_ik eta_ik (log
    w_ik(Theta) - log w_ik(Theta0)) (`weight_shift`), nothing per pair.  A
    state built on another events object, even one of the same length,
    raises ValidationError, as do parameters of another nu, S or V and prior
    shapes of a length other than 1 or S; a NaN value raises NumericalError.
    """
    st = state.structure
    st.check_built_for(events, "state")
    moved, dead = weight_shift(state, params)
    value = math.fsum([-_compensator_terms(st, params),
                       float(np.sum(state.log_z, dtype=np.longdouble)),
                       _prior_terms(params, prior), *moved])
    if dead:
        value = -math.inf
    if math.isnan(value):
        raise NumericalError("ELBO evaluated to NaN")
    return value


def default_init(events: EventSequence, prior: PriorConfig, nu: float) -> ModelParams:
    S, V = events.S, events.V
    _check_prior(prior, S)
    counts = events.token_counts_by_source() + 1.0  # add-one smoothing
    theta = counts / counts.sum(axis=1, keepdims=True) if V else counts
    if prior.c is not None:
        rho = np.broadcast_to(prior.a_rho / prior.b_rho, S).copy()
        A = np.broadcast_to((prior.a_alpha / prior.b_alpha)[:, None], (S, S)).copy()
    else:
        c = 0.1
        n_s = np.bincount(events.sources, minlength=S).astype(np.float64)
        rho = n_s * c / events.T
        A = np.full((S, S), (1.0 - c) / S)
    return ModelParams(rho=rho, A=A, theta=theta, gamma=0.5, nu=nu)


def jitter_init(params: ModelParams, seed: int, scale: float = 0.1) -> ModelParams:
    """Multiplicative log-normal perturbation of an initial point (theta renormalized)."""
    rng = np.random.default_rng(seed)
    rho = params.rho * np.exp(scale * rng.standard_normal(params.S))
    A = params.A * np.exp(scale * rng.standard_normal((params.S, params.S)))
    theta = params.theta * np.exp(scale * rng.standard_normal(params.theta.shape))
    if params.V:
        theta = theta / theta.sum(axis=1, keepdims=True)
    return ModelParams(rho=rho, A=A, theta=theta, gamma=params.gamma, nu=params.nu)


def fit(events: EventSequence, init: ModelParams | None = None,
        prior: PriorConfig | None = None, tol: float = 1e-6, max_iters: int = 200,
        window: float | None = None, nu: float | None = None) -> FitReport:
    """Block-coordinate ascent eta -> (rho, A) -> (theta, gamma) until the ELBO settles.

    The trace records, for each sweep, `elbo` at the post-E-step point, with
    the prior: there it sums the E-step's normalizers, the compensator and
    the prior, and no weights' terms.  The sequence is monotone because
    every block update is.  Convergence: relative trace change below tol, or
    the parameters reach an exact fixed point.  A fit that reaches max_iters
    unconverged stops after that sweep's E-step, so the returned eta is the
    E-step at the returned parameters and elbo(events, params, eta) is the
    last trace value, by the same call.  Nothing builds
    per-pair posteriors: a full root pass at the returned parameters reads
    the returned eta's terms, a block of children at a time, and
    `mini_conversations` reads them too.
    A windowed fit reports the largest and the mean share of an event's
    excitation intensity that the window dropped.  Raises NumericalError on
    a NaN objective with the iteration number, ValidationError when tol is
    not positive (NaN too) or max_iters is below 1, and ValidationError,
    naming both values, when both init and nu are given and nu differs from
    init.nu.
    """
    if len(events) == 0:
        raise ValidationError("cannot fit an empty event sequence")
    if not tol > 0 or max_iters < 1:  # not tol <= 0, which NaN passes
        raise ValidationError("tol must be positive and max_iters >= 1")
    if init is None and nu is None:
        raise ValidationError("either init or nu must be given")
    if init is not None and nu is not None and nu != init.nu:
        raise ValidationError(f"nu = {nu} conflicts with the initial parameters' "
                              f"nu = {init.nu}")
    # the layout's memory check, before any S- or V-sized array is allocated
    structure = structure_for(events, nu if init is None else init.nu, window)
    if prior is None:
        prior = PriorConfig.maximum_likelihood(events.S)
    params = default_init(events, prior, nu) if init is None else init

    trace: list[float] = []
    diag: dict = {}
    converged = False
    state = None
    for it in range(1, max_iters + 1):
        state = update_eta(events, params, structure)
        try:
            trace.append(elbo(events, params, state, prior))
        except NumericalError as err:
            raise NumericalError(f"{err} at iteration {it}") from None
        if it > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2])):
            converged = True
            break
        if it == max_iters:
            break
        rho, A = update_rho_alpha(events, state, prior, diag)
        theta, gamma = update_theta_gamma(events, state, (params.theta, params.gamma))
        new_params = ModelParams(rho=rho, A=A, theta=theta, gamma=gamma, nu=params.nu)
        converged = same_params(new_params, params)
        params = new_params
        if converged:
            break

    dropped = window_dropped(structure, params.A)
    return FitReport(params=params, eta=state, elbo_trace=np.array(trace),
                     iterations=len(trace), converged=converged,
                     numerator_clamps=diag.get("clamped", 0), window=window,
                     window_dropped_max=None if dropped is None else float(dropped.max()),
                     window_dropped_mean=None if dropped is None else float(dropped.mean()))

