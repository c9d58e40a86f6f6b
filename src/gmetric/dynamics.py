"""Orbits and Picard iteration on G-metric spaces.

Provides orbit traces with successive-gap bookkeeping, a fixed-point
solver with convergence-rate classification and an optional certified
geometric error bound, a trace CSV writer that can run in a forked
process beside the solver, cluster-point detection, and sampled probes
for orbital continuity and injectivity.  The probes are finite evidence,
never proofs, and are labeled as such in their verdicts.
"""
from __future__ import annotations

import math
import os
import signal
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice, repeat
from typing import Callable, Optional, Sequence

from .errors import DomainError, ParameterError
from .spaces import (
    Carrier,
    DEFAULT_TOL,
    FAIL,
    FiniteCarrier,
    GMetricSpace,
    PASS,
    Point,
    RealCarrier,
    Regime,
    Verdict,
    _FLOAT_MAX,
    _validate_value,
    normalize_point,
    raw_g,
)

DEFAULT_TRACE_MAX = 100_000
# Largest trace_max: the trace is held in memory until it is written, and at
# this size its points and gaps take about 64 MB.
TRACE_MAX_LIMIT = 1_000_000
MAX_ITER_LIMIT = 10 ** 7  # largest max_iter: 12 s of moebius steps on a 2-core VM


@dataclass(frozen=True)
class SelfMap:
    """A self-map of a carrier.  ``apply`` must be total and deterministic.

    ``apply_batch``, when given, maps a float array of scalar points
    elementwise to the floats ``apply`` gives one by one; where ``apply``
    would raise, it yields a non-finite value instead.
    """

    domain: Carrier
    apply: Callable[[Point], Point]
    name: str = ""
    apply_batch: Optional[Callable] = None

    def step(self, p: Point) -> Point:
        """Apply the map to an already-normalized point, validating the image."""
        return normalize_point(self.domain, self.apply(p))


@dataclass
class OrbitTrace:
    """The prefix x0, Tx0, ..., Tnx0 with gaps G(x_k, x_{k+1}, x_{k+1})."""

    points: list
    gaps: list
    exact_fixed: bool = False

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ConvergenceClass:
    kind: str  # geometric | sublinear | stagnated | diverged
    ratio: Optional[float] = None

    def __str__(self) -> str:
        if self.kind == "geometric" and self.ratio is not None:
            return f"geometric({self.ratio:.6g})"
        return self.kind


@dataclass
class FixedPointCertificate:
    candidate: Point
    residual: float
    iterations: int
    convergence_class: ConvergenceClass
    apriori_bound: Optional[float]
    stop_reason: str  # gap-threshold | max-iter | exact-fixed
    initial_gap: Optional[float] = None
    certified_q: Optional[float] = None
    space_id: str = ""
    map_id: str = ""
    trace: Optional[OrbitTrace] = field(default=None, repr=False)


def _validated_step(space: GMetricSpace, smap: SelfMap) -> Callable:
    """The one Picard step ``x -> (Tx, G(x, Tx, Tx))`` of :func:`orbit`,
    :func:`solve_picard` and its residual.

    The image is normalized against the carrier and the gap validated, so a
    run raises DomainError at the step where an image leaves the carrier or
    G is not finite.  A float image inside the float range of the carrier
    (:attr:`RealCarrier.span` on a one-dimensional real carrier, empty on
    any other) and a finite float gap of a float space pass by two
    comparisons each; any other value takes the full normalization or
    validation, which converts it or raises.
    """
    if smap.domain != space.carrier:
        raise DomainError("map domain does not match the space carrier")
    carrier, apply, g = space.carrier, smap.apply, space.g
    empty = (_FLOAT_MAX, -_FLOAT_MAX)  # no float lies in it
    lo, hi = carrier.span if isinstance(carrier, RealCarrier) and carrier.dim == 1 else empty
    g_lo, g_hi = empty if space.exact else (-_FLOAT_MAX, _FLOAT_MAX)

    def step(x):
        x1 = apply(x)
        if type(x1) is not float or not lo <= x1 <= hi:
            x1 = normalize_point(carrier, x1)
        gap = g(x, x1, x1)
        if type(gap) is not float or not g_lo <= gap <= g_hi:
            gap = _validate_value(space, gap)
        return x1, gap
    return step


def orbit(space: GMetricSpace, smap: SelfMap, x0, n: int) -> OrbitTrace:
    """Iterate the map n times from x0, recording points and successive gaps.

    Stops early, flagged ``exact_fixed``, when an iterate repeats exactly:
    ``Tx == x``, which is bitwise for floats.
    """
    if n < 1:
        raise ParameterError("orbit length must be at least 1")
    step = _validated_step(space, smap)
    x = normalize_point(space.carrier, x0)
    points = [x]
    gaps = []
    fixed = False
    for _ in range(n):
        x1, gap = step(x)
        gaps.append(gap)
        points.append(x1)
        if x1 == x:
            fixed = True
            break
        x = x1
    return OrbitTrace(points=points, gaps=gaps, exact_fixed=fixed)


def classify_gaps(gap_tail: Sequence[float], min_gap: float, eps_stop: float,
                  residual: float) -> ConvergenceClass:
    """Classify the decay of a gap sequence from its tail.

    Ratio test over the last (up to) 10 gaps: geometric when every tail
    ratio stays at or below 0.95; sublinear when the gaps still decrease
    but the ratios exceed that; diverged when the last gap has grown to
    10x the running minimum; stagnated otherwise.
    """
    if residual == 0 or not gap_tail:
        return ConvergenceClass("geometric", 0.0)
    last = gap_tail[-1]
    if last == 0:
        return ConvergenceClass("geometric", 0.0)
    if min_gap > 0 and last >= 10.0 * min_gap and last > min_gap:
        return ConvergenceClass("diverged")
    ratios = [b / a for a, b in zip(gap_tail, list(gap_tail)[1:]) if a > 0]
    if ratios and max(ratios) <= 0.95:
        return ConvergenceClass("geometric", max(ratios))
    if ratios and all(r < 1.0 for r in ratios):
        return ConvergenceClass("sublinear")
    if last <= eps_stop:
        return ConvergenceClass("sublinear")
    return ConvergenceClass("stagnated")


def solve_picard(space: GMetricSpace, smap: SelfMap, x0, eps_stop: float,
                 max_iter: int, certified_q: Optional[float] = None,
                 trace_max: int = DEFAULT_TRACE_MAX, *,
                 on_trace: Optional[Callable] = None) -> FixedPointCertificate:
    """Run Picard iteration until the successive gap falls to eps_stop, or
    until an iterate repeats exactly (``Tx == x``, bitwise for floats).

    Exhausting ``max_iter`` is reported in ``stop_reason``, not raised; an
    image outside the carrier or a non-finite gap raises DomainError at
    the step where it appears.  When a certified contraction ratio q is
    supplied, the certificate carries the geometric tail bound
    q^n/(1-q) * G(x0, Tx0, Tx0) at the reported iteration count.

    The certificate's ``trace`` holds the first min(max(1, iterations),
    trace_max) steps, and at least one: with no iteration counted it is
    the residual step from x0.  ``on_trace``, when given, is called once
    with that trace at the step that fills it to max(1, trace_max) steps,
    if the loop goes on past that step; the trace takes no later step, so
    the call sees the certificate's final trace.  A run that stops at or
    before that step never calls it.
    """
    if eps_stop <= 0:
        raise ParameterError("eps_stop must be positive")
    if max_iter < 0:
        raise ParameterError("max_iter must be nonnegative")
    if max_iter > MAX_ITER_LIMIT:
        raise ParameterError(f"malformed max_iter: {max_iter} steps, limit {MAX_ITER_LIMIT}")
    if trace_max < 0:
        raise ParameterError("trace_max must be nonnegative")
    if trace_max > TRACE_MAX_LIMIT:
        raise ParameterError(f"trace_max must be at most {TRACE_MAX_LIMIT}")
    if certified_q is not None and not (0 < certified_q < 1):
        raise ParameterError("certified_q must lie in (0, 1)")

    step = _validated_step(space, smap)
    x = normalize_point(space.carrier, x0)
    points, gaps = [x], []
    trace_steps = max(1, trace_max)
    # the step that fills the trace, where the loop may go on past it
    hook_at = trace_steps - 1 if on_trace is not None and trace_steps < max_iter else -1

    tail = deque(maxlen=11)
    g0 = None
    min_gap = math.inf
    iterations = 0
    stop_reason = "max-iter"

    for k in range(max_iter):
        x1, gap = step(x)
        if g0 is None:
            g0 = gap
        if gap < min_gap:
            min_gap = gap
        tail.append(gap)
        if x1 == x:
            stop_reason = "exact-fixed"
            break
        if k < trace_steps:
            points.append(x1)
            gaps.append(gap)
            if k == hook_at and gap > eps_stop:
                on_trace(OrbitTrace(points, gaps))
        iterations = k + 1
        x = x1
        if gap <= eps_stop:
            stop_reason = "gap-threshold"
            break

    x_img, residual = step(x)
    if not gaps:
        points.append(x_img)
        gaps.append(residual)
    trace = OrbitTrace(points=points, gaps=gaps, exact_fixed=iterations == 0 and x_img == x)

    klass = classify_gaps(list(tail), min_gap if min_gap < math.inf else 0.0,
                          eps_stop, residual)
    bound = None
    if certified_q is not None:
        if g0 is None:
            g0 = residual  # no step taken: the initial gap is the residual itself
        bound = apriori_bound(certified_q, g0, iterations)

    return FixedPointCertificate(
        candidate=x, residual=residual, iterations=iterations,
        convergence_class=klass, apriori_bound=bound, stop_reason=stop_reason,
        initial_gap=g0, certified_q=certified_q,
        space_id=space.name, map_id=smap.name, trace=trace)


def apriori_bound(q, g0, n: int):
    """Geometric tail bound q^n * g0 / (1 - q) on the distance from the
    n-th iterate to every later iterate (hence to the limit)."""
    if not 0 < q < 1:
        raise ParameterError("q must lie in (0, 1)")
    if g0 < 0:
        raise ParameterError("initial gap must be nonnegative")
    if n < 0:
        raise ParameterError("iteration count must be nonnegative")
    return (q ** n) * g0 / (1 - q)


def iterations_needed(q: float, g0: float, eps: float) -> int:
    """Smallest n with q^n * g0 / (1 - q) <= eps, verified by direct evaluation."""
    if not 0 < q < 1:
        raise ParameterError("q must lie in (0, 1)")
    if g0 <= 0:
        raise ParameterError("initial gap must be positive")
    if eps <= 0:
        raise ParameterError("eps must be positive")
    if apriori_bound(q, g0, 0) <= eps:
        return 0
    n = max(0, math.ceil(math.log(eps * (1 - q) / g0) / math.log(q)))
    while apriori_bound(q, g0, n) > eps:
        n += 1
    while n > 0 and apriori_bound(q, g0, n - 1) <= eps:
        n -= 1
    return n


def detect_cluster_point(space: GMetricSpace, trace: OrbitTrace, tol: float,
                         min_hits: int) -> Optional[Point]:
    """Earliest trace point u with at least ``min_hits`` trace entries
    satisfying G(u, x_k, x_k) <= tol; None when no point qualifies."""
    if min_hits < 2:
        raise ParameterError("min_hits must be at least 2")
    pts = trace.points
    for u in pts:
        hits = 0
        for p in pts:
            if raw_g(space, u, p, p) <= tol:
                hits += 1
                if hits >= min_hits:
                    break
        if hits >= min_hits:
            return u
    return None


def _trace_points(trace_or_points):
    if isinstance(trace_or_points, OrbitTrace):
        return trace_or_points.points
    return list(trace_or_points)


def probe_orbital_continuity(space: GMetricSpace, smap: SelfMap, trace,
                             candidate, tol: float) -> Verdict:
    """Check that the map carries trace points near the candidate to points
    near the candidate's image.  Finite evidence only, not a proof."""
    c = normalize_point(space.carrier, candidate)
    tc = smap.step(c)
    checked = 0
    for k, p in enumerate(_trace_points(trace)):
        p = normalize_point(space.carrier, p)
        if raw_g(space, c, p, p) <= tol:
            checked += 1
            tp = smap.step(p)
            v = raw_g(space, tc, tp, tp)
            if v > tol:
                return Verdict(FAIL, witness=(k, p), values=(v,),
                               note="finite evidence only")
    return Verdict(PASS, values=(checked,), note="finite evidence only")


def probe_injectivity(smap: SelfMap, sample, tol: float = DEFAULT_TOL) -> Verdict:
    """Look for two distinct sample points with (numerically) equal images.
    Finite evidence only, not a proof."""
    if not sample:
        raise ParameterError("injectivity probe requires a nonempty sample")
    distinct = Regime(isinstance(smap.domain, FiniteCarrier), tol).distinct
    pts = [normalize_point(smap.domain, p) for p in sample]
    images = [smap.step(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if distinct(pts[i], pts[j]) and not distinct(images[i], images[j]):
                return Verdict(FAIL, witness=(pts[i], pts[j]),
                               values=(images[i], images[j]),
                               note="finite evidence only")
    return Verdict(PASS, values=(len(pts),), note="finite evidence only")


def write_trace_csv(trace: OrbitTrace, path, certified_q: Optional[float] = None) -> None:
    """Serialize a trace as CSV with the fixed header ``n,x,gap,bound``.

    The bound column is the geometric tail bound per row when a certified
    q is supplied and empty otherwise; the gap column is empty on the
    final row.  ``x`` is the repr of a float, the str of another scalar or
    the reprs of a tuple's coordinates joined by ``;``; gap and bound are
    reprs.  One row loop serves every trace, 4096 rows joined per write,
    and gives the bytes of ``csv.writer``: rows end with ``\\r\\n``, and a
    field is quoted when it holds a comma, as the repr of a ``Fraction``
    does (the text of a number holds no quote or line break).  The
    ``solve`` command runs it in a forked process through
    :class:`TraceWriter` when the trace fills while the loop goes on.
    """
    gaps = trace.gaps
    bounds = repeat("")
    if isinstance(certified_q, Fraction) and gaps:
        bounds = map(repr, _exact_apriori_bounds(certified_q, gaps[0]))
    elif certified_q is not None and gaps:
        bounds = map(repr, map(apriori_bound, repeat(certified_q), repeat(gaps[0]), count()))
    rows = (f"{n},{repr(x) if type(x) is float else _point_field(x)},"
            f"{g if ',' not in g else _quoted(g)},{b if ',' not in b else _quoted(b)}\r\n"
            for n, x, g, b in zip(count(), trace.points, chain(map(repr, gaps), repeat("")), bounds))
    with open(path, "w", newline="") as fh:
        fh.write("n,x,gap,bound\r\n")
        while chunk := "".join(islice(rows, 4096)):
            fh.write(chunk)


class TraceWriter:
    """Writes a solve's trace CSV at ``path`` from a forked child while the
    solve goes on.

    Pass :meth:`fork` to :func:`solve_picard` as ``on_trace``: it forks a
    child that runs :func:`write_trace_csv` into ``<path>.<pid>.part`` and
    leaves through ``os._exit``, sending the text of any exception over a
    pipe.  :meth:`join` waits for the child and renames the part file onto
    ``path``; it raises OSError with the child's text when the child failed,
    and returns False when no child was forked (no fork was asked for, or
    none could be made), so that the caller writes the trace inline.
    Leaving the ``with`` block, on an exception too, kills and reaps a child
    not yet joined and removes the part file, so a failed solve leaves any
    earlier file at ``path`` as it was.  The child only formats text and
    writes one file, so it needs no lock that another thread of the parent
    could hold at the fork.
    """

    def __init__(self, path, certified_q: Optional[float] = None):
        self.path, self.certified_q = path, certified_q
        self.part = f"{path}.{os.getpid()}.part"
        self.pid = self.errors = None

    def fork(self, trace: OrbitTrace) -> None:
        errors, child_errors = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the trace is written inline
            os.close(errors)
            os.close(child_errors)
            return
        if pid == 0:
            code = 1
            try:
                write_trace_csv(trace, self.part, self.certified_q)
                code = 0
            except Exception as e:
                os.write(child_errors, str(e).encode())
            finally:
                os._exit(code)
        os.close(child_errors)
        self.pid, self.errors = pid, open(errors, "rb")

    def join(self) -> bool:
        if self.pid is None:
            return False
        with self.errors:
            text = self.errors.read().decode(errors="replace")
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status:
            raise OSError(text or f"trace writer ended with wait status {status}")
        os.replace(self.part, self.path)
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.errors.close()
            self.pid = None
        try:
            os.unlink(self.part)
        except FileNotFoundError:
            pass


def _exact_apriori_bounds(q: Fraction, g0):
    """``apriori_bound(q, g0, n)`` for n = 0, 1, ..., with q^n carried as a
    running exact product: the same value, without a fresh power per row.  A
    float q keeps ``q ** n``, as a running float product rounds differently."""
    yield apriori_bound(q, g0, 0)  # checks q and g0
    power = q
    while True:
        yield power * g0 / (1 - q)
        power *= q


def _point_field(p) -> str:
    """The ``x`` field of a point that is not a ``float``."""
    if isinstance(p, tuple):
        return _quoted(";".join(map(repr, p)))
    return _quoted(repr(p) if isinstance(p, float) else str(p))


def _quoted(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field that holds no quote or line break."""
    return f'"{text}"' if "," in text else text
