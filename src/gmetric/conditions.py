"""Contractive-condition evaluators.

Three single-inequality conditions compare G(Tx, Ty, Tz) against a
majorant built from three competing terms:

    M1 = G(x, y, z)
    M2 = a(x, y, z) * G(Tx, y, z) * G(x, Ty, z) * G(x, y, Tz)
    M3 = G(x, Tx, Tx) * G(y, Ty, Ty) * G(z, Tz, Tz) / (M1 * G(Tx, Ty, Tz))

  C-Q     strict:      lhs <  q * max{M1, M2, M3},  q in (0, 1)
  C-UNIT  strict:      lhs <      max{M1, M2, M3}
  C-GAUGE non-strict:  lhs <= h(M1, M3, M2)   (note the argument order)

M3 contains the left-hand side in its denominator; it is evaluated
literally, and when the denominator vanishes while the left side is
positive the term is dropped from the majorant (for the gauge form it
contributes 0) and the exclusion recorded.  That is the conservative
reading: it can never manufacture a HOLDS.

The three "extension" conditions bound iterate displacements instead:

  (i)   G(x,Tx,Tx) + G(y,Ty,Ty) + G(z,Tz,Tz) <= alpha * G(x,y,z)
  (ii)  same left side <= beta * [G(Tx,y,z) + G(x,Ty,z) + G(x,y,Tz)]
  (iii) G(Tx,Ty,Tz) <= delta * max{G(x,y,z), G(x,Tx,Tx), G(y,Ty,Ty),
          G(z,Tz,Tz), (1/4)[G(Tx,y,z) + G(x,Ty,z) + G(x,y,Tz)]}

with alpha in [1,3), beta in [1/2,1), delta in [0,1).  The per-condition
contraction factors are (alpha-1)/2, (2*beta-1)/(2-2*beta) and delta; the
combined factor is exposed in two modes, a min-combination ("paper") and
a max-combination ("sound"), because the min-combination stops being a
contraction factor for beta >= 3/4, where its middle factor reaches 1.
"""
from __future__ import annotations

import heapq
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, islice, product, repeat, starmap
from operator import eq, gt, index, itemgetter
from typing import Callable, Iterable, Optional

from ._lazy import np
from .errors import DomainError, ParameterError
from .spaces import (
    ConditionVerdict,
    DEFAULT_TOL,
    FAIL,
    FAILS,
    FiniteCarrier,
    GMetricSpace,
    HOLDS_STRICT,
    HOLDS_WEAK,
    PASS,
    ROW_STATUSES,
    RealCarrier,
    Regime,
    VACUOUS,
    Verdict,
    _first_failure,
    normalize_point,
    points_distinct,
    raw_g,
    scaled_form,
    scaled_tol,
)
from .dynamics import SelfMap
from .sampling import BLOCK

# G values and images one evaluation context keeps on a finite carrier: a
# table with m^3 below it (m <= 40) reads each G value once
G_MEMO_MAX = 1 << 16
GAUGE_GRID_MAX = 32  # distinct grid values; n of them tabulate h at n^3 arguments
GAUGE_N_MAX = 10 ** 6  # diagonal steps per grid value: about 5 s at 32 values

MAJORANT_IDS = ("C-Q", "C-UNIT", "C-GAUGE")
CONDITION_IDS = MAJORANT_IDS + ("EXT-I", "EXT-II", "EXT-III")


@dataclass(frozen=True)
class AuxWeight:
    """Nonnegative weight a(x, y, z) entering the M2 product term.

    Kinds: ``zero``; ``constant`` c >= 0; ``reciprocal-cap`` which returns
    min(c, 1 / (G(x,y,z) * G(Tx,Ty,Tz))) where the denominator is positive
    and 0 where it vanishes (so the weight automatically satisfies the
    uniqueness hypothesis a <= 1/(G * G)); ``custom`` wraps a callable.
    """

    kind: str
    c: Optional[object] = None
    fn: Optional[Callable] = None

    @classmethod
    def zero(cls) -> "AuxWeight":
        return cls("zero")

    @classmethod
    def constant(cls, c) -> "AuxWeight":
        if c < 0:
            raise ParameterError("constant weight must be nonnegative")
        return cls("constant", c=c)

    @classmethod
    def reciprocal_cap(cls, c) -> "AuxWeight":
        if c < 0:
            raise ParameterError("cap must be nonnegative")
        return cls("reciprocal-cap", c=c)

    @classmethod
    def custom(cls, fn: Callable) -> "AuxWeight":
        return cls("custom", fn=fn)

    def value(self, x, y, z, g_xyz, g_image):
        """a(x, y, z), given G(x, y, z) and G(Tx, Ty, Tz) by the caller."""
        if self.kind == "zero":
            return 0
        if self.kind == "constant":
            return self.c
        if self.kind == "reciprocal-cap":
            denom = g_xyz * g_image
            if denom == 0:
                return 0
            return min(self.c, 1 / denom)
        v = self.fn(x, y, z)
        if v < 0:
            raise DomainError("custom weight returned a negative value")
        return v

    def label(self) -> str:
        if self.kind in ("constant", "reciprocal-cap"):
            return f"{self.kind}({self.c})"
        return self.kind


@dataclass(frozen=True)
class GaugeFunction:
    """Three-variable gauge; admissibility (monotone, usc, shrinking
    diagonal) is checked by :func:`check_gauge_admissible`, never assumed.
    ``evaluate_batch``, when given, is ``evaluate`` elementwise on float
    arrays, bit for bit."""

    evaluate: Callable
    name: str = ""
    evaluate_batch: Optional[Callable] = None

    def diagonal(self, t):
        return self.evaluate(t, t, t)


@dataclass(frozen=True)
class ConditionSpec:
    """Which contractive condition to evaluate, with its parameters."""

    id: str
    q: Optional[object] = None
    a: Optional[AuxWeight] = None
    h: Optional[GaugeFunction] = None
    alpha: Optional[object] = None
    beta: Optional[object] = None
    delta: Optional[object] = None

    def __post_init__(self):
        if self.id not in CONDITION_IDS:
            raise ParameterError(f"unknown condition id {self.id!r}")
        need_a = self.id in MAJORANT_IDS
        if need_a and self.a is None:
            object.__setattr__(self, "a", AuxWeight.zero())
        if not need_a and self.a is not None:
            raise ParameterError(f"{self.id} does not take a weight function")
        if self.id == "C-Q":
            if self.q is None or not 0 < self.q < 1:
                raise ParameterError("C-Q requires q in (0, 1)")
        elif self.q is not None:
            raise ParameterError(f"{self.id} does not take q")
        if self.id == "C-GAUGE":
            if self.h is None:
                raise ParameterError("C-GAUGE requires a gauge function")
        elif self.h is not None:
            raise ParameterError(f"{self.id} does not take a gauge")
        for name, val, lo, hi in (("alpha", self.alpha, 1, 3),
                                  ("beta", self.beta, Fraction(1, 2), 1),
                                  ("delta", self.delta, 0, 1)):
            required = self.id == {"alpha": "EXT-I", "beta": "EXT-II", "delta": "EXT-III"}[name]
            if required:
                if val is None or not lo <= val < hi:
                    raise ParameterError(f"{self.id} requires {name} in [{lo}, {hi})")
            elif val is not None:
                raise ParameterError(f"{self.id} does not take {name}")

    def params_label(self) -> str:
        parts = []
        if self.q is not None:
            parts.append(f"q={self.q}")
        if self.a is not None and self.a.kind != "zero":
            parts.append(f"a={self.a.label()}")
        if self.h is not None:
            parts.append(f"h={self.h.name}")
        for nm in ("alpha", "beta", "delta"):
            v = getattr(self, nm)
            if v is not None:
                parts.append(f"{nm}={v}")
        return ",".join(parts)


class _EvalContext:
    """G values ``g(a, b, c)`` and map images ``t(p)`` on normalized points,
    with the arithmetic regime of one call.

    A finite carrier has at most m^3 G keys and m image keys, so both are
    kept in an LRU memo of ``G_MEMO_MAX`` entries; on a real carrier keys
    do not repeat and both are evaluated directly.  Without a map ``t`` is None,
    for a caller that supplies its own images.  ``scaled`` is the space's
    :func:`scaled_form`, for :func:`_decider`.
    """

    def __init__(self, space: GMetricSpace, smap: Optional[SelfMap] = None,
                 tol_base: float = DEFAULT_TOL):
        if smap is not None and smap.domain != space.carrier:
            raise DomainError("map domain does not match the space carrier")
        self.regime = Regime(space.exact, tol_base)
        self.scaled = scaled_form(space)
        memo = (lru_cache(maxsize=G_MEMO_MAX) if isinstance(space.carrier, FiniteCarrier)
                else (lambda f: f))
        self.g = memo(partial(raw_g, space))
        self.t = None if smap is None else memo(smap.step)


def eval_condition(space: GMetricSpace, smap: SelfMap, spec: ConditionSpec,
                   x, y, z, tol_base: float = DEFAULT_TOL) -> ConditionVerdict:
    """Evaluate one of the majorant conditions (C-Q, C-UNIT, C-GAUGE) on a triple.

    The quantifier behind these conditions requires x != y; passing equal
    points raises DomainError.  A zero left-hand side yields VACUOUS.
    """
    if spec.id not in MAJORANT_IDS:
        raise ParameterError(f"eval_condition does not handle {spec.id}; see eval_extension")
    c = space.carrier
    xn, yn, zn = normalize_point(c, x), normalize_point(c, y), normalize_point(c, z)
    if not points_distinct(space, xn, yn, tol_base):
        raise DomainError("condition requires x != y")
    ctx = _EvalContext(space, smap, tol_base)
    return _eval_majorant(ctx, spec, xn, yn, zn, ctx.t(xn), ctx.t(yn), ctx.t(zn))


def _eval_spec(ctx: _EvalContext, spec: ConditionSpec,
               x, y, z, tx, ty, tz) -> ConditionVerdict:
    """Verdict of any condition on a normalized triple (x != y for a majorant
    one) whose images are tx, ty and tz; it reads nothing else of the map."""
    if spec.id in MAJORANT_IDS:
        return _eval_majorant(ctx, spec, x, y, z, tx, ty, tz)
    return _eval_extension(ctx, spec, x, y, z, tx, ty, tz)


def _eval_majorant(ctx: _EvalContext, spec: ConditionSpec,
                   x, y, z, tx, ty, tz) -> ConditionVerdict:
    reg, g = ctx.regime, ctx.g
    lhs = g(tx, ty, tz)
    m1 = g(x, y, z)

    a_val = spec.a.value(x, y, z, m1, lhs)
    if a_val == 0:
        m2 = reg.zero
    else:
        m2 = a_val * g(tx, y, z) * g(x, ty, z) * g(x, y, tz)

    excluded = ()
    denom = m1 * lhs
    if denom == 0:
        m3 = None
        if not reg.vacuous(lhs):
            excluded = ("M3",)
    else:
        m3 = g(x, tx, tx) * g(y, ty, ty) * g(z, tz, tz) / denom

    if spec.id == "C-GAUGE":
        m3_arg = m3 if m3 is not None else reg.zero
        rhs = spec.h.evaluate(m1, m3_arg, m2)
        strict = False
    else:
        cands = [m1, m2] if m3 is None else [m1, m2, m3]
        q = spec.q if spec.id == "C-Q" else 1
        rhs = q * max(cands)
        strict = True

    return ConditionVerdict(status=reg.status(lhs, rhs, strict), lhs=lhs, rhs=rhs,
                            excluded_terms=excluded, triple=(x, y, z))


@dataclass
class ExtensionVerdicts:
    i: Optional[ConditionVerdict]
    ii: Optional[ConditionVerdict]
    iii: Optional[ConditionVerdict]
    any_holds: bool


def _eval_extension(ctx: _EvalContext, spec: ConditionSpec,
                    x, y, z, tx, ty, tz) -> ConditionVerdict:
    g = ctx.g
    gx = g(x, tx, tx)
    gy = g(y, ty, ty)
    gz = g(z, tz, tz)
    if spec.id == "EXT-I":
        lhs = gx + gy + gz
        rhs = spec.alpha * g(x, y, z)
    elif spec.id == "EXT-II":
        lhs = gx + gy + gz
        rhs = spec.beta * (g(tx, y, z) + g(x, ty, z) + g(x, y, tz))
    else:
        cross = g(tx, y, z) + g(x, ty, z) + g(x, y, tz)
        lhs = g(tx, ty, tz)
        rhs = spec.delta * max(g(x, y, z), gx, gy, gz, cross / 4)
    return ConditionVerdict(status=ctx.regime.status(lhs, rhs, strict=False),
                            lhs=lhs, rhs=rhs, triple=(x, y, z))


def _decider(ctx: _EvalContext, spec: ConditionSpec) -> tuple:
    """``(decide, unit)``: how one verdict of ``spec`` is decided.

    ``decide(x, y, z, tx, ty, tz)`` gives ``(status, excluded_terms, rank,
    lhs, rhs)`` on a normalized triple (x != y for a majorant condition)
    whose images are tx, ty and tz, and ``unit`` maps ``lhs`` or ``rhs`` to
    the verdict's side.  ``rank`` is rhs - lhs (in units of 1/``den`` on the
    integer path), so (rank, triple) orders fails by decreasing violation.

    An extension condition whose parameter p/q is an int or Fraction, on a
    :class:`ScaledG` space, is decided on the scaled integer G: both sides
    are cross-multiplied by ``den`` > 0, one constant of the run, so
    :meth:`Regime.status` decides the same on the integers, and ``unit`` is
    ``Fraction(side, den)``.  Any other spec is decided by :func:`_eval_spec`,
    the reference, ``unit`` is the identity and ``rank`` is None unless the
    verdict fails.  (A majorant's M3 term would put M1 * lhs * scale^3 in the
    factor, whose products outgrow the Fraction path's on long denominators.)
    """
    factor = {"EXT-I": spec.alpha, "EXT-II": spec.beta, "EXT-III": spec.delta}.get(spec.id)
    if ctx.scaled is None or not isinstance(factor, (int, Fraction)):
        def decide(x, y, z, tx, ty, tz):
            v = _eval_spec(ctx, spec, x, y, z, tx, ty, tz)
            return (v.status, v.excluded_terms, v.rhs - v.lhs if v.status == FAILS else None,
                    v.lhs, v.rhs)
        return decide, lambda side: side
    g, status = ctx.scaled.ints, ctx.regime.status
    p, q = factor.as_integer_ratio()
    if spec.id == "EXT-III":
        den = 4 * q * ctx.scaled.scale

        def decide(x, y, z, tx, ty, tz):  # 4q * lhs <= p * max(4 M1, 4 gx, 4 gy, 4 gz, cross)
            lhs = 4 * q * g(tx, ty, tz)
            rhs = p * max(4 * g(x, y, z), 4 * g(x, tx, tx), 4 * g(y, ty, ty), 4 * g(z, tz, tz),
                          g(tx, y, z) + g(x, ty, z) + g(x, y, tz))
            return status(lhs, rhs, False), (), rhs - lhs, lhs, rhs
    else:
        ext_i, den = spec.id == "EXT-I", q * ctx.scaled.scale

        def decide(x, y, z, tx, ty, tz):  # q * lhs <= p * (G(x, y, z) or the cross sum)
            lhs = q * (g(x, tx, tx) + g(y, ty, ty) + g(z, tz, tz))
            rhs = p * (g(x, y, z) if ext_i else g(tx, y, z) + g(x, ty, z) + g(x, y, tz))
            return status(lhs, rhs, False), (), rhs - lhs, lhs, rhs
    return decide, lambda side: Fraction(side, den)


def _extension_specs(alpha=None, beta=None, delta=None) -> list:
    """One range-checked :class:`ConditionSpec` per given extension parameter."""
    specs = [ConditionSpec(id=cid, **{name: v})
             for cid, name, v in (("EXT-I", "alpha", alpha), ("EXT-II", "beta", beta),
                                  ("EXT-III", "delta", delta))
             if v is not None]
    if not specs:
        raise ParameterError("enable at least one of alpha, beta, delta")
    return specs


def eval_extension(space: GMetricSpace, smap: SelfMap, x, y, z,
                   alpha=None, beta=None, delta=None,
                   tol_base: float = DEFAULT_TOL) -> ExtensionVerdicts:
    """Evaluate the enabled extension conditions (i)/(ii)/(iii) on a triple.

    A condition is enabled by passing its parameter; at least one must be
    given, and each is range-checked by :class:`ConditionSpec`.  Any triple
    is admissible (no x != y restriction here).
    """
    specs = _extension_specs(alpha, beta, delta)
    c = space.carrier
    xn, yn, zn = normalize_point(c, x), normalize_point(c, y), normalize_point(c, z)
    ctx = _EvalContext(space, smap, tol_base)
    images = ctx.t(xn), ctx.t(yn), ctx.t(zn)
    verdicts = {s.id: _eval_extension(ctx, s, xn, yn, zn, *images) for s in specs}
    return ExtensionVerdicts(i=verdicts.get("EXT-I"), ii=verdicts.get("EXT-II"),
                             iii=verdicts.get("EXT-III"),
                             any_holds=any(v.holds for v in verdicts.values()))


@dataclass
class FactorReport:
    lam: object
    factors: dict
    admissible: bool
    mode: str


def contraction_factor(alpha, beta, delta, mode: str = "paper") -> FactorReport:
    """Per-step contraction factor implied by the extension conditions.

    ``paper`` mode combines the three per-condition factors with min;
    ``sound`` mode combines with max and flags the parameters as
    inadmissible when any factor reaches 1 (the middle factor
    (2*beta-1)/(2-2*beta) does so for beta >= 3/4).
    """
    if len(_extension_specs(alpha, beta, delta)) != 3:  # range-checks those given
        raise ParameterError("contraction_factor requires alpha, beta and delta")
    if mode not in ("paper", "sound"):
        raise ParameterError(f"unknown mode {mode!r}")
    f1 = (alpha - 1) / 2
    f2 = (2 * beta - 1) / (2 - 2 * beta)
    f3 = delta
    factors = {"i": f1, "ii": f2, "iii": f3}
    admissible = all(f < 1 for f in factors.values())
    lam = min(factors.values()) if mode == "paper" else max(factors.values())
    return FactorReport(lam=lam, factors=factors, admissible=admissible, mode=mode)


@dataclass
class GaugeReport:
    monotone: Verdict
    usc_heuristic: Verdict
    diagonal_strict: Verdict
    iterates_vanish: Verdict
    equivalence_consistent: bool
    details: dict = field(default_factory=dict)

    def admissible(self) -> bool:
        """All non-heuristic verdicts pass and the two diagonal views agree."""
        return (self.monotone.passed and self.diagonal_strict.passed
                and self.iterates_vanish.passed and self.equivalence_consistent)


def check_gauge_admissible(h: GaugeFunction, ts, n_max: int = 500,
                           thresh: float = 1e-8,
                           tol_base: float = DEFAULT_TOL) -> GaugeReport:
    """Grid-check the gauge admissibility requirements.

    * monotone: h nondecreasing in each argument over all grid pairs;
    * diagonal_strict: g(t) = h(t,t,t) < t at every grid point;
    * iterates_vanish: iterating g from each grid point either reaches
      ``thresh`` within ``n_max`` steps or is still making strict progress
      at the horizon (no stall at a positive value).  A sequence stalled
      at a positive near-fixed value fails, which is exactly the behavior
      that separates shrinking diagonals from non-shrinking ones;
    * usc_heuristic: a refining-grid upper-semicontinuity probe along the
      diagonal, labeled heuristic;
    * equivalence_consistent: diagonal_strict and iterates_vanish agree,
      the grid-testable face of the "g(t) < t iff iterates vanish" dichotomy.
    Past ``GAUGE_GRID_MAX`` distinct grid values or ``GAUGE_N_MAX`` steps:
    ParameterError, before h runs.
    """
    ts = sorted(set(float(t) for t in ts))
    if not ts:
        raise ParameterError("gauge check requires a nonempty grid")
    if not all(math.isfinite(t) for t in ts):
        raise ParameterError(f"malformed gauge grid: {ts} has a non-finite value")
    if any(t <= 0 for t in ts):
        raise ParameterError("grid values must be positive")
    if len(ts) > GAUGE_GRID_MAX:
        raise ParameterError(f"malformed gauge grid: {len(ts)} values, limit {GAUGE_GRID_MAX}")
    if n_max < 1:
        raise ParameterError("n_max must be at least 1")
    if n_max > GAUGE_N_MAX:
        raise ParameterError(f"malformed n_max: {n_max} steps, limit {GAUGE_N_MAX}")
    if thresh <= 0:
        raise ParameterError("thresh must be positive")
    exceeds = Regime(False, tol_base).exceeds

    def monotone_failures():  # each variable slot, all grid pairs, other slots on the grid
        args, uv = list(product(ts, repeat=3)), list(product(ts, ts))
        cube = dict(zip(args, starmap(h.evaluate, args)))  # h once over the grid cube
        # exceeds(a, b) implies a > b on floats: a pair of float rows with no a > b holds
        floats = all(type(v) is float for v in cube.values())
        for slot in range(3):  # rows[i]: h with ts[i] in the slot, the others over uv
            rows = [[cube[(*(u, v)[:slot], t, *(u, v)[slot:])] for u, v in uv] for t in ts]
            for (lo_t, lo), (hi_t, hi) in combinations(zip(ts, rows), 2):
                if not floats or any(map(gt, lo, hi)):
                    for (u, v), a, b in zip(uv, lo, hi):
                        if exceeds(a, b):
                            yield (slot, lo_t, hi_t, u, v), (a, b)

    monotone = _first_failure(monotone_failures())

    diag = _first_failure(((t,), (g_t,)) for t, g_t in zip(ts, map(h.diagonal, ts))
                          if not g_t < t - scaled_tol(tol_base, t, g_t))

    vanish = Verdict(PASS)
    iterate_details = {}
    for t in ts:
        v = float(t)
        hit = None
        for i in range(1, n_max + 1):
            v = h.diagonal(v)
            if v <= thresh:
                hit = i
                break
        if hit is not None:
            iterate_details[t] = {"hit_iteration": hit, "final": v, "stalled": False}
            continue
        progress = v - h.diagonal(v)
        stalled = progress <= thresh * (1.0 + abs(v))
        iterate_details[t] = {"hit_iteration": None, "final": v, "stalled": stalled}
        if stalled or not v < t:
            vanish = Verdict(FAIL, witness=(t,), values=(v,))
            break

    # usc probe: on a refining ladder toward t from either side, the excess
    # of the approach values over g(t) must decay; a persistent excess is a
    # jump up at t, which upper semicontinuity forbids.
    def usc_failures():
        for t in ts:
            g_t = h.diagonal(t)
            for sign in (1.0, -1.0):
                ladder = [t + sign * t * 1e-3 * (2.0 ** -j) for j in range(6)]
                ladder = [p for p in ladder if p > 0]
                if not ladder:
                    continue
                excesses = [h.diagonal(p) - g_t for p in ladder]
                floor = 1e-9 * (1.0 + abs(g_t))
                if excesses[-1] > floor and excesses[-1] > 0.6 * excesses[0]:
                    yield (t,), (g_t, g_t + excesses[-1])

    usc = replace(_first_failure(usc_failures()), note="heuristic")

    return GaugeReport(
        monotone=monotone, usc_heuristic=usc, diagonal_strict=diag,
        iterates_vanish=vanish,
        equivalence_consistent=(diag.passed == vanish.passed),
        details={"iterates": iterate_details, "grid": ts,
                 "n_max": n_max, "thresh": thresh})


@dataclass
class UniquenessReport:
    v: Verdict
    vi: Verdict
    checked: int


def check_uniqueness_conditions(space: GMetricSpace, smap: SelfMap, xi,
                                sample, tol: float = 1e-9,
                                tol_base: float = DEFAULT_TOL) -> UniquenessReport:
    """Check the two strict separation conditions that force uniqueness.

    For every sampled x != xi:
      (v)  G(xi, Tx, Tx) < G(x, x, xi) + G(x, Tx, Tx)
      (vi) G(xi, x, x)  < G(xi, Tx, Tx) + G(x, Tx, Tx)

    ``xi`` must be approximately fixed: G(xi, T xi, T xi) <= tol.
    """
    c = space.carrier
    xin = normalize_point(c, xi)
    ctx = _EvalContext(space, smap, tol_base)
    txi = ctx.t(xin)
    residual = ctx.g(xin, txi, txi)
    if residual > tol:
        raise DomainError(f"xi is not approximately fixed (residual {residual})")
    distinct, strictly_below = ctx.regime.distinct, ctx.regime.strictly_below

    v_verdict = Verdict(PASS)
    vi_verdict = Verdict(PASS)
    checked = 0
    for p in sample:
        pn = normalize_point(c, p)
        if not distinct(pn, xin):
            continue
        checked += 1
        tp = ctx.t(pn)
        g_xtp = ctx.g(xin, tp, tp)
        g_ptp = ctx.g(pn, tp, tp)
        if v_verdict.passed:
            rhs = ctx.g(pn, pn, xin) + g_ptp
            if not strictly_below(g_xtp, rhs):
                v_verdict = Verdict(FAIL, witness=(pn,), values=(g_xtp, rhs))
        if vi_verdict.passed:
            lhs = ctx.g(xin, pn, pn)
            rhs = g_xtp + g_ptp
            if not strictly_below(lhs, rhs):
                vi_verdict = Verdict(FAIL, witness=(pn,), values=(lhs, rhs))
    return UniquenessReport(v=v_verdict, vi=vi_verdict, checked=checked)


def check_aux_bound(space: GMetricSpace, smap: SelfMap, a: AuxWeight,
                    triples, tol_base: float = DEFAULT_TOL) -> Verdict:
    """Pointwise check of the uniqueness hypothesis a <= 1/(G * G') on a
    collection of triples, skipping triples where the denominator vanishes."""
    c = space.carrier
    ctx = _EvalContext(space, smap, tol_base)
    return _aux_bound(ctx, a, ((normalize_point(c, x), normalize_point(c, y),
                                normalize_point(c, z)) for x, y, z in triples), ctx.t)


def _aux_bound(ctx: _EvalContext, a: AuxWeight, triples, t) -> Verdict:
    """:func:`check_aux_bound` on normalized triples, with images ``t(p)``."""
    g = ctx.g
    for (x, y, z) in triples:
        g_xyz, g_image = g(x, y, z), g(t(x), t(y), t(z))
        denom = g_xyz * g_image
        if denom == 0:
            continue
        bound = ctx.regime.one / denom
        a_val = a.value(x, y, z, g_xyz, g_image)
        if ctx.regime.above(a_val, bound):
            return Verdict(FAIL, witness=(x, y, z), values=(a_val, bound))
    return Verdict(PASS)


@dataclass
class Certificate:
    """Aggregate outcome of evaluating a condition over sampled triples."""

    condition_id: str
    params: str
    checked: int
    holds_strict: int
    holds_weak: int
    vacuous: int
    fails: int
    worst: list
    excluded_term_count: int

    @property
    def holds(self) -> int:
        return self.holds_strict + self.holds_weak + self.vacuous


def _size(value, name: str) -> int:
    """``value`` as an int in 0..sys.maxsize, else a ParameterError."""
    try:
        value = index(value)
    except TypeError:
        raise ParameterError(f"malformed {name}: {value!r} is not an integer") from None
    if value < 0:
        raise ParameterError(f"{name} must be nonnegative")
    if value > sys.maxsize:
        raise ParameterError(f"malformed {name}: {value} is past {sys.maxsize}")
    return value


def certify_on_samples(space: GMetricSpace, smap: SelfMap, spec: ConditionSpec,
                       sampler: Iterable, count: int,
                       tol_base: float = DEFAULT_TOL, worst_cap: int = 10) -> Certificate:
    """Evaluate a condition on ``count`` sampled triples and aggregate.

    The sampler must respect the x != y constraint for the majorant
    conditions.  The worst violations (up to ``worst_cap``) are kept,
    canonically ordered by decreasing violation then triple, so the
    aggregate does not depend on how the stream was partitioned.

    One loop reads the stream ``BLOCK`` triples at a time.  Where
    :func:`_batch_evaluator` applies (float G on a one-dimensional real
    carrier, with batch forms of G, the map and the gauge), a chunk is
    evaluated with numpy, operation for operation as :func:`_eval_spec`
    does.  Every other chunk, and one the batch form refuses (a point or
    image outside the carrier, x == y, a value that is not finite), is
    decided triple by triple through :func:`_decider`.  A finite chunk whose
    points C builtins show to be ``int`` indices in range (and x != y for a
    majorant condition on exact values) is taken as it is; any other chunk
    is normalized triple by triple, which raises at the offending triple.
    Every path gives the chunk's status counts, excluded-M3 count and its
    failing rows ``(rank, triple, n, excluded_terms, lhs, rhs)`` for a
    triple drawn n times; the ``worst_cap`` smallest by (rank, triple) are
    kept, and the worst list's verdicts are built from them at the end.

    A finite carrier has at most m^3 triples, which a long stream repeats:
    a finite chunk is tallied by distinct triple, and each is decided once
    while it stays in an LRU memo of the last ``BLOCK`` decisions.  A real
    chunk is decided as drawn (0.0 and -0.0 hash alike).  Every drawn
    triple is still checked and counted.  At most ``BLOCK`` memoized
    decisions, one chunk and ``worst_cap`` worst rows are held at a time,
    whatever ``count`` is.
    """
    worst_cap, count = _size(worst_cap, "worst_cap"), _size(count, "count")
    ctx = _EvalContext(space, smap, tol_base)
    decide, unit = _decider(ctx, spec)
    distinct, t, c = ctx.regime.distinct, ctx.t, space.carrier
    majorant = spec.id in MAJORANT_IDS
    finite = isinstance(c, FiniteCarrier)
    # C builtins check x != y only where the regime compares points with !=
    quick = finite and (ctx.regime.exact or not majorant)
    batch = None if finite else _batch_evaluator(space, smap, spec, ctx.regime, worst_cap)
    decided = (lru_cache(maxsize=BLOCK) if finite else (lambda f: f))(
        lambda x, y, z: decide(x, y, z, t(x), t(y), t(z)))

    def indices(chunk) -> bool:
        if set(map(type, chunk)) != {tuple} or set(map(len, chunk)) != {3}:
            return False
        flat = list(chain.from_iterable(chunk))
        return (set(map(type, flat)) == {int} and min(flat) >= 0 and max(flat) < c.size
                and not (majorant and any(map(eq, flat[::3], flat[1::3]))))

    def normalized(x, y, z):
        # before the lookup: True and np.int64(1) hash like 1
        xn, yn, zn = normalize_point(c, x), normalize_point(c, y), normalize_point(c, z)
        if majorant and not distinct(xn, yn):
            raise DomainError("sampler produced a triple with x == y")
        return xn, yn, zn

    def evaluate(chunk):
        if not (quick and indices(chunk)):  # lazily: a real chunk raises at the same triple
            chunk = (normalized(x, y, z) for x, y, z in chunk)
        counts, excluded, fails = dict.fromkeys(ROW_STATUSES, 0), 0, []
        for triple, n in Counter(chunk).items() if finite else zip(chunk, repeat(1)):
            status, terms, rank, lhs, rhs = decided(*triple)
            counts[status] += n
            if terms:
                excluded += n * len(terms)
            if status == FAILS:
                fails.append((rank, triple, n, terms, lhs, rhs))
        return list(counts.values()), excluded, fails

    tallies = dict.fromkeys(ROW_STATUSES, 0)
    worst = []
    excluded = 0
    triples = islice(sampler, count)
    for chunk in iter(lambda: list(islice(triples, BLOCK)), []):
        counts, chunk_excluded, fails = (batch and batch(chunk)) or evaluate(chunk)
        for status, n in zip(ROW_STATUSES, counts):
            tallies[status] += n
        excluded += chunk_excluded
        # equal to sorted(worst + fails, key=...)[:worst_cap], ties included
        worst = heapq.nsmallest(worst_cap, worst + fails, key=itemgetter(0, 1))
        del chunk, fails  # else they live on while the next chunk is read

    # n >= 1 in every row, so the worst_cap worst rows hold the worst_cap verdicts
    worst = list(islice((ConditionVerdict(FAILS, unit(lhs), unit(rhs), terms, triple)
                         for _, triple, n, terms, lhs, rhs in worst for _ in range(n)),
                        worst_cap))
    return Certificate(
        condition_id=spec.id, params=spec.params_label(), checked=sum(tallies.values()),
        holds_strict=tallies[HOLDS_STRICT], holds_weak=tallies[HOLDS_WEAK],
        vacuous=tallies[VACUOUS], fails=tallies[FAILS],
        worst=worst, excluded_term_count=excluded)


def _float_factor(v) -> bool:
    """``v * t`` on a float t is ``float(v) * t``."""
    if not isinstance(v, (int, float, Fraction)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _masked_div(num, den):
    """num / den where den != 0, and 0.0 where it vanishes."""
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)


def _float_rows(chunk):
    """The chunk as a (3, n) float array when each triple is three floats, else None."""
    try:
        if set(map(len, chunk)) != {3}:
            return None
        flat = list(chain.from_iterable(chunk))
    except TypeError:
        return None
    if set(map(type, flat)) != {float}:
        return None
    return np.array(flat).reshape(-1, 3).T.copy()


def _batch_evaluator(space: GMetricSpace, smap: SelfMap, spec: ConditionSpec,
                     reg: Regime, worst_cap: int) -> Optional[Callable]:
    """The numpy form of :func:`_eval_spec` on chunks of triples, or None
    where it does not apply.

    It needs a float space on a one-dimensional real carrier, ``g_batch``,
    ``apply_batch`` and, for C-GAUGE, ``evaluate_batch``; a zero, constant
    or reciprocal-cap weight; and parameters that are ints, floats or
    Fractions, which multiply a float as their float value.  Called on a
    chunk, it returns the status counts in ``ROW_STATUSES`` order, the
    number of excluded M3 terms and the failing rows that can enter the
    worst list (the chunk's ``worst_cap`` smallest by (rank, triple), with
    n = 1), or None when the chunk must be decided triple by triple.
    """
    carrier, weight = space.carrier, spec.a
    factors = (spec.q, spec.alpha, spec.beta, spec.delta, weight.c if weight else None)
    if (reg.exact or not isinstance(carrier, RealCarrier) or carrier.dim != 1
            or space.g_batch is None or smap.apply_batch is None
            or (spec.h is not None and spec.h.evaluate_batch is None)
            or (weight is not None and weight.kind == "custom")
            or not all(_float_factor(v) for v in factors if v is not None)):
        return None
    g, t = space.g_batch, smap.apply_batch
    rows = _majorant_rows if spec.id in MAJORANT_IDS else _extension_rows
    strict = spec.id in ("C-Q", "C-UNIT")
    lo, hi = carrier.span

    def in_carrier(a) -> bool:
        return bool(((a >= lo) & (a <= hi)).all())

    def evaluate(chunk):
        p = _float_rows(chunk)
        if p is None:
            return None
        # Python floats overflow to inf and give nan silently; every division is masked.
        with np.errstate(over="ignore", invalid="ignore"):
            if not in_carrier(p) or (spec.id in MAJORANT_IDS
                                     and not reg.distinct_rows(p[0], p[1]).all()):
                return None
            tp = t(p)
            out = rows(g, spec, reg, p, tp) if in_carrier(tp) else None
            if out is None:
                return None
            lhs, rhs, excluded = out
            code = reg.status_rows(lhs, rhs, strict)
        fails = np.flatnonzero(code == ROW_STATUSES.index(FAILS))
        ranked = []
        if worst_cap and fails.size:
            rank = rhs[fails] - lhs[fails]
            sel = fails[np.lexsort((p[2][fails], p[1][fails], p[0][fails], rank))[:worst_cap]]
            ranked = [(right - left, (x, y, z), 1, ("M3",) if ex else (), left, right)
                      for left, right, ex, x, y, z in zip(
                          lhs[sel].tolist(), rhs[sel].tolist(), excluded[sel].tolist(),
                          *p[:, sel].tolist())]
        counts = np.bincount(code, minlength=len(ROW_STATUSES)).tolist()
        return counts, int(excluded.sum()), ranked

    return evaluate


def _all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _majorant_rows(g, spec: ConditionSpec, reg: Regime, p, tp):
    """lhs, rhs and the excluded-M3 mask of :func:`_eval_majorant` on
    arrays, or None when a value is not finite."""
    (x, y, z), (tx, ty, tz) = p, tp
    lhs, m1 = g(tx, ty, tz), g(x, y, z)
    gx, gy, gz = g(x, tx, tx), g(y, ty, ty), g(z, tz, tz)
    denom = m1 * lhs
    m3 = _masked_div(gx * gy * gz, denom)
    values = [lhs, m1, gx, gy, gz, m3]
    a = spec.a
    if a.kind == "zero" or a.c == 0:
        m2 = np.zeros_like(m1)
    else:
        cross = [g(tx, y, z), g(x, ty, z), g(x, y, tz)]
        w = float(a.c)
        if a.kind == "reciprocal-cap":
            w = np.where(denom == 0, 0.0, np.minimum(w, _masked_div(1.0, denom)))
        m2 = np.where(w == 0, 0.0, w * cross[0] * cross[1] * cross[2])
        values += cross + [m2]
    has_m3 = denom != 0
    if spec.id == "C-GAUGE":
        rhs = spec.h.evaluate_batch(m1, m3, m2)  # m3 is 0 where it is dropped
    else:
        top = np.maximum(m1, m2)
        top = np.where(has_m3, np.maximum(top, m3), top)
        rhs = (float(spec.q) if spec.id == "C-Q" else 1.0) * top
    values.append(rhs)
    if not _all_finite(values):
        return None
    return lhs, rhs, ~has_m3 & ~reg.vacuous(lhs)


def _extension_rows(g, spec: ConditionSpec, reg: Regime, p, tp):
    """lhs, rhs and an all-False excluded mask of :func:`_eval_extension`
    on arrays, or None when a value is not finite."""
    (x, y, z), (tx, ty, tz) = p, tp
    gx, gy, gz = g(x, tx, tx), g(y, ty, ty), g(z, tz, tz)
    values = [gx, gy, gz]
    if spec.id == "EXT-I":
        lhs = gx + gy + gz
        m1 = g(x, y, z)
        rhs = float(spec.alpha) * m1
        values += [m1]
    else:
        cross = [g(tx, y, z), g(x, ty, z), g(x, y, tz)]
        values += cross
        if spec.id == "EXT-II":
            lhs = gx + gy + gz
            rhs = float(spec.beta) * (cross[0] + cross[1] + cross[2])
        else:
            m1, lhs = g(x, y, z), g(tx, ty, tz)
            top = np.maximum.reduce([m1, gx, gy, gz, (cross[0] + cross[1] + cross[2]) / 4])
            rhs = float(spec.delta) * top
            values += [m1]
    values += [lhs, rhs]
    if not _all_finite(values):
        return None
    return lhs, rhs, np.zeros(lhs.shape, dtype=bool)
