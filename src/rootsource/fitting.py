"""Variational EM for the marked Hawkes model with latent branching.

The mean-field posterior Q(z) = prod_i Multi(z_i | 1, eta_i) gives the
surrogate objective (coefficient-free ELBO)

    L~ = - sum_s rho[s] int_0^T mu_bar_s
         - sum_s sum_i A[s, s_i] beta(x_i) int_{t_i}^T kappa
         + sum_i eta_i0 log( rho[s_i] mu_bar(t_i) f(x_i | t_i, s_i) )
         + sum_i sum_{j<i} eta_ij log( A[s_i, s_j] kappa(t_j, t_i) f(x_i | t_i, s_i, e_j) )
         - sum_i sum_j eta_ij log eta_ij   [+ Gamma log-prior terms]

maximized by block-coordinate ascent with closed-form updates: eta by
normalized posterior weights, (rho, A) by Gamma-posterior means, and
(theta, gamma) by maximizing a Jensen minorant that is tight at the current
estimates, so every sweep is monotone in L~.

The E-step is exact (all j < i pairs) by default.  An optional truncation
window keeps only pairs with t_i - t_j <= window * nu; dropped pairs have
kernel weight below exp(-window), and the same restricted objective is then
maximized monotonically.  Candidate-pair layouts and the token-overlap
triples (i, j, v) are precomputed once per fit in a PairStructure and reused
across sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from ._numeric import ragged_arange, segment_max, segment_sum
from .errors import NumericalError, ValidationError
from .model import (ConstantShape, EventSequence, ModelParams, _event_betas,
                    log_mark_density_immigrant, log_mark_density_offspring,
                    unit_mark_impact)

__all__ = [
    "PriorConfig",
    "PairStructure",
    "VariationalState",
    "FitReport",
    "update_eta",
    "update_rho_alpha",
    "update_theta_gamma",
    "elbo",
    "fit",
]

THETA_FLOOR = 1e-12
NUMERATOR_FLOOR = 1e-12
GAMMA_FLOOR = 1e-6


@dataclass
class PriorConfig:
    """Independent Gamma priors rho_s ~ Gamma(a_rho[s], b_rho), A[s,:] ~ Gamma(a_alpha[s], b_alpha).

    Maximum-likelihood mode is the improper prior a=1, b=0, under which the
    rho/A updates coincide with the ML closed forms.  Empirical-Bayes mode
    sets a_rho[s] = a_alpha[s] = N_s, b_rho = T/c, b_alpha = T/(1-c) from an
    expected immigrant proportion c.
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
        if np.any(self.a_rho <= 0) or np.any(self.a_alpha <= 0):
            raise ValidationError("prior shapes must be positive")
        if self.b_rho < 0 or self.b_alpha < 0:
            raise ValidationError("prior rates must be nonnegative")
        if self.c is not None and not 0 < self.c < 1:
            raise ValidationError("c must lie in (0, 1)")

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


class PairStructure:
    """Fixed candidate-parent layout for one event sequence and kernel setting.

    Pairs (i, j) with j < i (and t_i - t_j <= window * nu when a window is
    given) are stored flat, grouped by child i; row_start[i]:row_start[i+1]
    is child i's slice.  Token-overlap triples (i, j, v) with x_{i,v} > 0 and
    x_{j,v} > 0 drive the mark-mixture corrections and the theta/gamma
    updates.  Everything here depends only on events, nu, window, and the
    base-shape/mark-impact hooks, so one instance is shared across sweeps.
    """

    def __init__(self, events: EventSequence, nu: float, window: float | None = None,
                 base_shape=None, mark_impact=unit_mark_impact):
        if nu <= 0:
            raise ValidationError("nu must be positive")
        if window is not None and window <= 0:
            raise ValidationError("truncation window must be positive")
        base_shape = base_shape if base_shape is not None else ConstantShape()
        n = len(events)
        times = events.times
        sources = events.sources
        S, V = events.S, events.V

        self.events = events
        self.nu = float(nu)
        self.window = None if window is None else float(window)
        self.base_shape = base_shape
        self.mark_impact = mark_impact

        if window is None:
            lo = np.zeros(n, dtype=np.int64)
        else:
            lo = np.searchsorted(times, times - window * nu, side="left")
        cand = np.arange(n) - lo
        self.lo = lo
        self.row_len = cand
        self.row_start = np.concatenate([[0], np.cumsum(cand)])
        self.pair_j = ragged_arange(lo, np.arange(n))
        self.n_pairs = self.pair_j.size
        self.log_kernel = -(np.repeat(times, cand) - times[self.pair_j]) / nu - np.log(nu)
        sources32 = sources.astype(np.int32)
        self.pair_cell = np.repeat(sources32 * S, cand)
        self.pair_cell += sources32[self.pair_j]

        lengths = events.lengths
        parent_has_tokens = lengths[self.pair_j] > 0
        self.mix_scale = np.where(parent_has_tokens, np.repeat(lengths, cand), 0.0)

        self.kint = 1.0 - np.exp(-(events.T - times) / nu)
        self.beta = _event_betas(mark_impact, events)
        with np.errstate(divide="ignore"):
            self.log_beta = np.log(self.beta)
        if isinstance(base_shape, ConstantShape):
            self.mu_log = np.full(n, math.log(base_shape.c))
        else:
            vals = np.array([base_shape.value(int(sources[k]), float(times[k]))
                             for k in range(n)])
            with np.errstate(divide="ignore"):
                self.mu_log = np.log(vals)
        self.mu_int = np.array([base_shape.integral(s, 0.0, events.T) for s in range(S)])

        self.counts_by_source = events.token_counts_by_source()
        self.nnz_row = np.repeat(np.arange(n), np.diff(events.tok_indptr))
        self.key_nnz = sources[self.nnz_row] * V + events.tok_index

        self._build_triples()

    @property
    def pair_i(self) -> np.ndarray:
        """Child index of every pair; rebuilt on each access, not stored."""
        return np.repeat(np.arange(len(self.events)), self.row_len)

    def _build_triples(self):
        events = self.events
        n, V = len(events), events.V
        indptr, post_ev, post_cnt, post_norm = events.token_postings()
        lo = self.lo
        sources = events.sources
        parts_pair, parts_key, parts_xiv, parts_xjv = [], [], [], []
        for v in range(V):
            a, b = indptr[v], indptr[v + 1]
            if b - a < 2:
                continue
            P = post_ev[a:b]
            starts = np.searchsorted(P, lo[P], side="left")
            stops = np.arange(P.size)
            m = stops - starts
            if not np.any(m > 0):
                continue
            child_sel = np.repeat(np.arange(P.size), np.maximum(m, 0))
            j_sel = ragged_arange(starts, stops)
            i_ev = P[child_sel]
            j_ev = P[j_sel]
            parts_pair.append(self.row_start[i_ev] + (j_ev - lo[i_ev]))
            parts_key.append(sources[i_ev] * V + v)
            parts_xiv.append(post_cnt[a:b][child_sel])
            parts_xjv.append(post_norm[a:b][j_sel])
        if parts_pair:
            self.tri_pair = np.concatenate(parts_pair)
            self.tri_key = np.concatenate(parts_key)
            self.tri_xiv = np.concatenate(parts_xiv)
            self.tri_xjv = np.concatenate(parts_xjv)
        else:
            self.tri_pair = np.empty(0, dtype=np.int64)
            self.tri_key = np.empty(0, dtype=np.int64)
            self.tri_xiv = np.empty(0)
            self.tri_xjv = np.empty(0)


@dataclass
class VariationalState:
    """Mean-field parent posteriors, stored sparse over the pair layout.

    eta0[k] is event k's immigrant probability; eta_pair aligns with the
    structure's pair arrays; log_z holds the per-event log-normalizers of
    the E-step that produced the state.
    """

    structure: PairStructure
    eta0: np.ndarray
    eta_pair: np.ndarray
    log_z: np.ndarray

    def __len__(self) -> int:
        return self.eta0.size

    def eta_vector(self, k: int) -> np.ndarray:
        """Dense eta_k = (immigrant, parent 1, ..., parent k) of length k+1."""
        st = self.structure
        out = np.zeros(k + 1)
        out[0] = self.eta0[k]
        sl = slice(st.row_start[k], st.row_start[k + 1])
        out[st.pair_j[sl] + 1] = self.eta_pair[sl]
        return out


@dataclass
class FitReport:
    params: ModelParams
    eta: VariationalState
    elbo_trace: np.ndarray
    iterations: int
    converged: bool
    numerator_clamps: int = 0
    window: float | None = None


def _structure_for(events, params, window):
    return PairStructure(events, params.nu, window=window,
                         base_shape=params.base_shape, mark_impact=params.mark_impact)


def _fast_path_ok(params: ModelParams) -> bool:
    if not 0.0 <= params.gamma < 1.0:
        return False
    if params.V and params.theta.min() <= 0.0:
        return False
    return True


def _log_weights(structure: PairStructure, params: ModelParams,
                 use_time: bool = True, use_marks: bool = True):
    """Per-component unnormalized log posterior weights.

    Returns (logw_imm, logw_pair): logw_imm[k] = log(mu(t_k) f(x_k|t_k,s_k)),
    logw_pair aligned with the structure's pairs holding
    log(lambda_j(t_i) f(x_i | t_i, s_i, e_j)).  use_time=False leaves out the
    intensity factors mu and lambda_j, use_marks=False the mark densities f.
    -inf entries are legal.
    """
    if use_marks:
        logw_imm, logw_pair = _log_mark_densities(structure, params)
    else:
        logw_imm = np.zeros(len(structure.events))
        logw_pair = np.zeros(structure.n_pairs)
    if use_time:
        _add_log_intensities(structure, params, logw_imm, logw_pair)
    return logw_imm, logw_pair


def _add_log_intensities(structure: PairStructure, params: ModelParams,
                         logw_imm: np.ndarray, logw_pair: np.ndarray) -> None:
    # Adds log(rho mu(t_k)) and log(A beta_j kappa(t_i - t_j)) in place.
    with np.errstate(divide="ignore"):
        log_rho = np.log(params.rho)
        log_A = np.log(params.A).ravel()
    logw_imm += log_rho[structure.events.sources] + structure.mu_log
    logw_pair += log_A[structure.pair_cell]
    logw_pair += structure.log_beta[structure.pair_j]
    logw_pair += structure.log_kernel


def _log_mark_densities(structure: PairStructure, params: ModelParams):
    # (log f(x_k | t_k, s_k), log f(x_i | t_i, s_i, e_j)) in fresh buffers.
    if not _fast_path_ok(params):
        return _log_mark_densities_slow(structure, params)
    events = structure.events
    n = len(events)
    if structure.key_nnz.size:
        log_theta = np.log(params.theta).ravel()
        log_f_imm = np.bincount(structure.nnz_row,
                                weights=events.tok_count * log_theta[structure.key_nnz],
                                minlength=n)
    else:
        log_f_imm = np.zeros(n)

    g = params.gamma
    if structure.tri_pair.size and g > 0:
        ratio = (g * structure.tri_xjv) / ((1.0 - g) * params.theta.ravel()[structure.tri_key])
        log_f_pair = np.bincount(structure.tri_pair,
                                 weights=structure.tri_xiv * np.log1p(ratio),
                                 minlength=structure.n_pairs)
    else:
        log_f_pair = np.zeros(structure.n_pairs)
    if g > 0:
        log_f_pair += structure.mix_scale * math.log1p(-g)
    log_f_pair += np.repeat(log_f_imm, structure.row_len)
    return log_f_imm, log_f_pair


def _log_mark_densities_slow(structure: PairStructure, params: ModelParams):
    # Reference path via the per-event density functions; used when theta has
    # exact zeros or gamma = 1, where the mixture decomposition breaks down.
    ev = list(structure.events)
    log_f_imm = np.array([log_mark_density_immigrant(params, e) for e in ev],
                         dtype=np.float64)
    pairs = zip(structure.pair_i.tolist(), structure.pair_j.tolist())
    log_f_pair = np.fromiter((log_mark_density_offspring(params, ev[i], ev[j])
                              for i, j in pairs), dtype=np.float64, count=structure.n_pairs)
    return log_f_imm, log_f_pair


def _normalize(structure: PairStructure, logw_imm: np.ndarray, logw_pair: np.ndarray):
    """Per-event log-sum-exp normalization of the posterior weights.

    Returns (eta0, eta_pair, log_z).  eta_pair is logw_pair's buffer,
    normalized in place.  Raises NumericalError naming the first event whose
    components are all -inf.
    """
    m = np.maximum(segment_max(logw_pair, structure.row_start), logw_imm)
    bad = ~np.isfinite(m)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalError(
            f"all parent hypotheses for event {k + 1} have zero probability "
            f"(degenerate theta or zero intensities)")
    wi = np.exp(logw_imm - m)
    eta_pair = logw_pair
    eta_pair -= np.repeat(m, structure.row_len)
    np.exp(eta_pair, out=eta_pair)
    z = wi + segment_sum(eta_pair, structure.row_start)
    eta_pair /= np.repeat(z, structure.row_len)
    return wi / z, eta_pair, m + np.log(z)


def update_eta(events: EventSequence, params: ModelParams,
               structure: PairStructure | None = None,
               window: float | None = None) -> VariationalState:
    """E-step: eta_i0 oc mu(t_i) f(x_i|t_i,s_i), eta_ij oc lambda_j(t_i) f(x_i|t_i,s_i,e_j).

    Normalization is done per event via log-sum-exp; a component at -inf gets
    exactly zero weight.  Raises NumericalError naming the first event whose
    components are all -inf.
    """
    if structure is None:
        structure = _structure_for(events, params, window)
    eta0, eta_pair, log_z = _normalize(structure, *_log_weights(structure, params))
    return VariationalState(structure, eta0, eta_pair, log_z)


def update_rho_alpha(events: EventSequence, state: VariationalState,
                     prior: PriorConfig, diag: dict | None = None):
    """M-step for (rho, A): Gamma-posterior means given the responsibilities.

    rho_s = (a_rho[s] - 1 + sum_{i: s_i=s} eta_i0) / (b_rho + int_0^T mu_bar_s);
    A[s, s'] = (a_alpha[s] - 1 + sum eta_ij over child source s, parent source s')
               / (b_alpha + sum_{i: s_i=s'} beta(x_i)(1 - e^{-(T - t_i)/nu})).
    Negative numerators (possible when a < 1) are clamped to a small floor and
    counted in diag["clamped"].
    """
    st = state.structure
    S = events.S
    rho_num = prior.a_rho - 1.0 + np.bincount(events.sources, weights=state.eta0,
                                              minlength=S)
    a_num = np.bincount(st.pair_cell, weights=state.eta_pair,
                        minlength=S * S).reshape(S, S) + (prior.a_alpha - 1.0)[:, None]
    clamped = int((rho_num < 0).sum() + (a_num < 0).sum())
    if diag is not None:
        diag["clamped"] = diag.get("clamped", 0) + clamped
    rho_num = np.where(rho_num < 0, NUMERATOR_FLOOR, rho_num)
    a_num = np.where(a_num < 0, NUMERATOR_FLOOR, a_num)

    rho = rho_num / (prior.b_rho + st.mu_int)
    a_den = prior.b_alpha + np.bincount(events.sources, weights=st.beta * st.kint,
                                        minlength=S)
    with np.errstate(invalid="ignore", divide="ignore"):
        A = np.where(a_den[None, :] > 0, a_num / a_den[None, :], 0.0)
    return rho, A


def update_theta_gamma(events: EventSequence, state: VariationalState,
                       current, form: str = "child"):
    """M-step for (theta, gamma) via the Jensen minorant tight at `current`.

    With xi_{j,v}^(s) = g xt_{j,v} / ((1-g) th[s,v] + g xt_{j,v}) evaluated at
    the current estimates, theta[s, v] oc sum over events of source s of
    x_{i,v} (1 - sum_j eta_ij xi), and gamma = sum eta_ij x_{i,v} xi / sum
    eta_ij x_{i,v}.  `form="parent"` swaps x_{i,v} for the parent's counts
    x_{j,v} in both updates (comparison variant, reference-speed only).
    Pairs whose parent has an empty mark use the immigrant density and carry
    no information about gamma, so they are excluded from its ratio.
    """
    theta_hat = np.asarray(current[0], dtype=np.float64)
    gamma_hat = float(current[1])
    if form == "parent":
        return _update_theta_gamma_parent(events, state, theta_hat, gamma_hat)
    if form != "child":
        raise ValidationError(f"unknown update form: {form!r}")

    st = state.structure
    S, V = events.S, events.V
    counts = st.counts_by_source
    if gamma_hat == 0.0:
        # xi = 0 identically: theta reduces to raw per-source frequencies and
        # gamma = 0 is a fixed point of the update.
        theta_num = counts.copy()
        gamma_new = 0.0
    else:
        g = gamma_hat
        if st.tri_pair.size:
            mix = (1.0 - g) * theta_hat.ravel()[st.tri_key] + g * st.tri_xjv
            xi = g * st.tri_xjv / mix
            w = state.eta_pair[st.tri_pair] * st.tri_xiv
            sub = np.bincount(st.tri_key, weights=w * xi, minlength=S * V).reshape(S, V)
            theta_num = counts - sub
            gamma_num = float(np.sum(w * xi, dtype=np.longdouble))
        else:
            theta_num = counts.copy()
            gamma_num = 0.0
        gamma_den = float(state.eta_pair @ st.mix_scale)
        if gamma_den == 0.0:
            gamma_new = gamma_hat
        else:
            gamma_new = min(max(gamma_num / gamma_den, GAMMA_FLOOR), 1.0 - GAMMA_FLOOR)

    theta_num = np.maximum(theta_num, THETA_FLOOR)
    theta = theta_num / theta_num.sum(axis=1, keepdims=True) if V else theta_num
    return theta, gamma_new


def _update_theta_gamma_parent(events, state, theta_hat, gamma_hat):
    # Literal x_{j,v} variant, kept only for comparison tests.
    S, V = events.S, events.V
    st = state.structure
    ev = list(events)
    theta_num = np.zeros((S, V))
    gamma_num = 0.0
    gamma_den = 0.0
    for k in range(len(events)):
        e = ev[k]
        theta_num[e.s, e.tokens] += state.eta0[k] * e.counts
    g = gamma_hat
    pair_i = st.pair_i
    for p in range(st.n_pairs):
        i, j = pair_i[p], st.pair_j[p]
        e_i, e_j = ev[i], ev[j]
        eta = state.eta_pair[p]
        if e_j.counts.sum() == 0:
            theta_num[e_i.s, e_i.tokens] += eta * e_i.counts
            continue
        xt = e_j.counts / e_j.counts.sum()
        if g > 0:
            xi = g * xt / ((1.0 - g) * theta_hat[e_i.s, e_j.tokens] + g * xt)
        else:
            xi = np.zeros_like(xt)
        theta_num[e_i.s, e_j.tokens] += eta * (1.0 - xi) * e_j.counts
        gamma_num += eta * float(np.dot(e_j.counts, xi))
        gamma_den += eta * float(e_j.counts.sum())
    if gamma_hat == 0.0 or gamma_den == 0.0:
        gamma_new = gamma_hat
    else:
        gamma_new = min(max(gamma_num / gamma_den, GAMMA_FLOOR), 1.0 - GAMMA_FLOOR)
    theta_num = np.maximum(theta_num, THETA_FLOOR)
    theta = theta_num / theta_num.sum(axis=1, keepdims=True) if V else theta_num
    return theta, gamma_new


def _compensator_terms(structure: PairStructure, params: ModelParams) -> float:
    base = float(np.dot(params.rho, structure.mu_int))
    col = params.A.sum(axis=0)
    excite = float(np.sum(col[structure.events.sources] * structure.beta * structure.kint,
                          dtype=np.longdouble))
    return base + excite


def _prior_terms(params: ModelParams, prior: PriorConfig | None) -> float:
    if prior is None:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_rho = float(np.sum(xlogy(prior.a_rho - 1.0, params.rho))
                      - prior.b_rho * params.rho.sum())
        t_a = float(np.sum(xlogy((prior.a_alpha - 1.0)[:, None], params.A))
                    - prior.b_alpha * params.A.sum())
    return t_rho + t_a


def elbo(events: EventSequence, params: ModelParams, state: VariationalState,
         prior: PriorConfig | None = None) -> float:
    """Evaluate L~(Theta, eta) exactly (multinomial coefficient excluded).

    Adds the Gamma log-prior terms when a prior is supplied.  The state must
    have been built for the same events and kernel bandwidth.
    """
    if len(state) != len(events):
        raise ValidationError("state and events disagree on length")
    st = state.structure
    if st.nu != params.nu:
        raise ValidationError("state was built for a different kernel bandwidth")
    logw_imm, logw_pair = _log_weights(st, params)
    with np.errstate(invalid="ignore"):
        data_imm = np.where(state.eta0 > 0, state.eta0 * logw_imm, 0.0)
        data_pair = np.where(state.eta_pair > 0, state.eta_pair * logw_pair, 0.0)
    entropy = -(float(np.sum(xlogy(state.eta0, state.eta0), dtype=np.longdouble))
                + float(np.sum(xlogy(state.eta_pair, state.eta_pair), dtype=np.longdouble)))
    value = math.fsum([
        -_compensator_terms(st, params),
        float(np.sum(data_imm, dtype=np.longdouble)),
        float(np.sum(data_pair, dtype=np.longdouble)),
        entropy,
        _prior_terms(params, prior),
    ])
    if math.isnan(value):
        raise NumericalError("ELBO evaluated to NaN")
    return value


def _default_init(events: EventSequence, prior: PriorConfig, nu: float,
                  base_shape, mark_impact) -> ModelParams:
    S, V = events.S, events.V
    counts = events.token_counts_by_source() + 1.0  # add-one smoothing
    theta = counts / counts.sum(axis=1, keepdims=True) if V else counts
    if prior.c is not None:
        rho = prior.a_rho / prior.b_rho
        A = np.broadcast_to((prior.a_alpha / prior.b_alpha)[:, None], (S, S)).copy()
    else:
        c = 0.1
        n_s = np.bincount(events.sources, minlength=S).astype(np.float64)
        rho = n_s * c / events.T
        A = np.full((S, S), (1.0 - c) / S)
    return ModelParams(rho=rho, A=A, theta=theta, gamma=0.5, nu=nu,
                       base_shape=base_shape if base_shape is not None else ConstantShape(),
                       mark_impact=mark_impact)


def jitter_init(params: ModelParams, seed: int, scale: float = 0.1) -> ModelParams:
    """Multiplicative log-normal perturbation of an initial point (theta renormalized)."""
    rng = np.random.default_rng(seed)
    rho = params.rho * np.exp(scale * rng.standard_normal(params.S))
    A = params.A * np.exp(scale * rng.standard_normal((params.S, params.S)))
    theta = params.theta * np.exp(scale * rng.standard_normal(params.theta.shape))
    if params.V:
        theta = theta / theta.sum(axis=1, keepdims=True)
    return ModelParams(rho=rho, A=A, theta=theta, gamma=params.gamma, nu=params.nu,
                       base_shape=params.base_shape, mark_impact=params.mark_impact)


def fit(events: EventSequence, init: ModelParams | None = None,
        prior: PriorConfig | None = None, tol: float = 1e-6, max_iters: int = 200,
        window: float | None = None, nu: float | None = None,
        base_shape=None, mark_impact=unit_mark_impact) -> FitReport:
    """Block-coordinate ascent eta -> (rho, A) -> (theta, gamma) until the ELBO settles.

    The trace records, for each sweep, the surrogate at the post-E-step point
    (computed from the E-step normalizers, so it equals the exact ELBO there);
    the sequence is monotone because every block update is.  Convergence:
    relative trace change below tol, or the parameters reach an exact fixed
    point.  Raises NumericalError on a NaN objective with the iteration number.
    """
    if len(events) == 0:
        raise ValidationError("cannot fit an empty event sequence")
    if tol <= 0 or max_iters < 1:
        raise ValidationError("tol must be positive and max_iters >= 1")
    if prior is None:
        prior = PriorConfig.maximum_likelihood(events.S)
    if init is None:
        if nu is None:
            raise ValidationError("either init or nu must be given")
        params = _default_init(events, prior, nu, base_shape, mark_impact)
    else:
        params = init
    structure = _structure_for(events, params, window)

    trace: list[float] = []
    diag: dict = {}
    converged = False
    state = None
    for it in range(1, max_iters + 1):
        state = update_eta(events, params, structure)
        value = math.fsum([
            -_compensator_terms(structure, params),
            float(np.sum(state.log_z, dtype=np.longdouble)),
            _prior_terms(params, prior),
        ])
        if math.isnan(value):
            raise NumericalError(f"ELBO became NaN at iteration {it}")
        trace.append(value)
        if it > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2])):
            converged = True
            break
        rho, A = update_rho_alpha(events, state, prior, diag)
        theta, gamma = update_theta_gamma(events, state, (params.theta, params.gamma))
        new_params = ModelParams(rho=rho, A=A, theta=theta, gamma=gamma, nu=params.nu,
                                 base_shape=params.base_shape,
                                 mark_impact=params.mark_impact)
        if (np.array_equal(new_params.rho, params.rho)
                and np.array_equal(new_params.A, params.A)
                and np.array_equal(new_params.theta, params.theta)
                and new_params.gamma == params.gamma):
            params = new_params
            converged = True
            break
        params = new_params

    return FitReport(params=params, eta=state, elbo_trace=np.array(trace),
                     iterations=len(trace), converged=converged,
                     numerator_clamps=diag.get("clamped", 0), window=window)
