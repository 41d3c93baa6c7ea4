"""Value distributions, virtual values, and reserve prices.

Analytic families (uniform, exponential, truncated exponential, and
piecewise polynomial-ramp densities) expose exact cdf/mean/quantile.
Empirical distributions are sorted sample arrays.  The virtual value of
a density family is phi(v) = v - (1 - T(v)) / t(v); the revenue-optimal
reserve is its root, found by bisection.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NoRoot, ParameterRange, ValidationError, ZeroDensity
from .market import BayesScenario, _json_number, _load_skeleton

_MASS_TOL = 1e-9
_TAIL_QUANTILE = 1.0 - 1e-12  # finite surrogate for unbounded supports
_MHR_SLOPE_TOL = 1e-6  # finite-difference slack on phi' >= 1


def _number_or_array(formula, x):
    """formula on x as a float64 array: a number gives a Python float, an
    array an array of its shape."""
    x = np.asarray(x, dtype=float)
    out = formula(x)
    return out if x.ndim else float(out)


class ValueDistribution:
    """Interface: support, cdf, sf, mean, quantile, sample; pdf when
    has_density.  pdf, cdf, sf and quantile take a number or an array.  A
    family writes each formula once, on float64 arrays: _pdf, _cdf, _sf
    where it has an exact tail, and _quantile or a quantile of its own."""

    family = "abstract"
    has_density = False

    @property
    def support(self):
        raise NotImplementedError

    def pdf(self, x):
        return _number_or_array(self._pdf, x)

    def cdf(self, x):
        return _number_or_array(self._cdf, x)

    def sf(self, x):
        """Survival 1 - T(x)."""
        return _number_or_array(self._sf, x)

    def _pdf(self, x):
        raise NotImplementedError

    def _cdf(self, x):
        raise NotImplementedError

    def _sf(self, x):
        # families with an exact tail override this: 1 - cdf loses all
        # precision once cdf is within ulp of one, which poisons virtual
        # values on the far tail
        return 1.0 - self._cdf(x)

    def mean(self):
        raise NotImplementedError

    def quantile(self, u):
        return _number_or_array(self._quantile, u)

    def _quantile(self, u):
        raise NotImplementedError

    def sample(self, rng, size):
        u = rng.random(size)
        return np.asarray(self.quantile(u))

    def exact_virtual_slope_cap(self):
        """Exact supremum of phi' when known in closed form, else None."""
        return None

    def grid_hi(self):
        """Finite upper end for numeric grids."""
        hi = self.support[1]
        return hi if math.isfinite(hi) else float(self.quantile(_TAIL_QUANTILE))

    def to_json(self):
        """{"family": ..., "params": {...}}, the form dist_from_json reads."""
        _, names = _FAMILIES[self.family]
        return {"family": self.family, "params": {
            n: _LIST_PARAMS[n][1](getattr(self, n)) if n in _LIST_PARAMS
            else getattr(self, n) for n in names}}


class Uniform(ValueDistribution):
    family = "uniform"
    has_density = True

    def __init__(self, lo, hi):
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ValidationError(f"uniform needs hi > lo, got [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    @property
    def support(self):
        return (self.lo, self.hi)

    def _pdf(self, x):
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def quantile(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)

    def exact_virtual_slope_cap(self):
        return 2.0


class Exponential(ValueDistribution):
    family = "exponential"
    has_density = True

    def __init__(self, rate):
        rate = float(rate)
        if not rate > 0.0:
            raise ValidationError(f"exponential rate must be positive, got {rate}")
        self.rate = rate

    @property
    def support(self):
        return (0.0, math.inf)

    def _pdf(self, x):
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * x), 0.0)

    def _cdf(self, x):
        return np.where(x >= 0.0, 1.0 - np.exp(-self.rate * x), 0.0)

    def _sf(self, x):
        return np.where(x >= 0.0, np.exp(-self.rate * x), 1.0)

    def mean(self):
        return 1.0 / self.rate

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def exact_virtual_slope_cap(self):
        return 1.0


class TruncatedExponential(ValueDistribution):
    family = "truncated_exponential"
    has_density = True

    def __init__(self, rate, hi):
        rate, hi = float(rate), float(hi)
        if not (rate > 0.0 and hi > 0.0):
            raise ValidationError("truncated exponential needs positive rate and hi")
        self.rate, self.hi = rate, hi
        self._norm = 1.0 - math.exp(-rate * hi)

    @property
    def support(self):
        return (0.0, self.hi)

    def _pdf(self, x):
        return np.where((x >= 0.0) & (x <= self.hi),
                        self.rate * np.exp(-self.rate * x) / self._norm, 0.0)

    def _cdf(self, x):
        return np.clip((1.0 - np.exp(-self.rate * np.clip(x, 0.0, self.hi))) / self._norm,
                       0.0, 1.0)

    def _sf(self, x):
        out = (np.exp(-self.rate * np.clip(x, 0.0, self.hi))
               - math.exp(-self.rate * self.hi)) / self._norm
        return np.where(x < 0.0, 1.0, np.where(x > self.hi, 0.0, out))

    def mean(self):
        lam, h = self.rate, self.hi
        return 1.0 / lam - h * math.exp(-lam * h) / self._norm

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u * self._norm) / self.rate

    def exact_virtual_slope_cap(self):
        # phi'(v) = 1 + exp(rate * (v - hi)), maximal at v = hi
        return 2.0


@dataclass(frozen=True)
class Piece:
    """Density piece on [lo, hi): t(x) = const + slope*(x-lo) +
    ramp*((x-lo)/(hi-lo))**power.  Coefficients are nonnegative so the
    piece is nondecreasing.  Powers go through np.power so that a number
    and an array element round alike."""

    lo: float
    hi: float
    const: float = 0.0
    slope: float = 0.0
    ramp: float = 0.0
    power: float = 1.0

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValidationError(f"piece needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.const < 0 or self.slope < 0 or self.ramp < 0 or self.power < 1:
            raise ValidationError("piece coefficients must be nonnegative, power >= 1")

    @property
    def width(self):
        return self.hi - self.lo

    def pdf(self, x):
        u = np.asarray(x, dtype=float) - self.lo
        frac = (u / self.width).clip(0.0, 1.0)
        return self.const + self.slope * u + self.ramp * np.power(frac, self.power)

    def mass_to(self, x):
        """Integral of the density from lo to x (x inside the piece)."""
        u = np.asarray(x, dtype=float) - self.lo
        frac = (u / self.width).clip(0.0, 1.0)
        return (self.const * u + 0.5 * self.slope * (u * u)
                + self.ramp * self.width / (self.power + 1.0)
                * np.power(frac, self.power + 1.0))

    @property
    def mass(self):
        return float(self.mass_to(self.hi))

    def moment(self):
        """Integral of x * t(x) over the whole piece."""
        L = self.width
        inner = (0.5 * self.const * L ** 2 + self.slope * L ** 3 / 3.0
                 + self.ramp * L ** 2 / (self.power + 2.0))
        return self.lo * self.mass + inner


class PiecewiseDensity(ValueDistribution):
    """Contiguous nondecreasing-capable piecewise density normalized to 1."""

    family = "piecewise"
    has_density = True

    def __init__(self, pieces: Sequence[Piece]):
        pieces = tuple(pieces)
        if not pieces:
            raise ValidationError("piecewise density needs at least one piece")
        for a, b in zip(pieces, pieces[1:]):
            if abs(a.hi - b.lo) > 1e-12 * max(1.0, abs(a.hi)):
                raise ValidationError(f"pieces are not contiguous at {a.hi!r} vs {b.lo!r}")
        total = math.fsum(p.mass for p in pieces)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValidationError(f"piecewise density integrates to {total!r}, expected 1")
        self.pieces = pieces
        self._cum = np.concatenate([[0.0], np.cumsum([p.mass for p in pieces])])
        self._breaks = np.array([p.lo for p in pieces] + [pieces[-1].hi])

    @property
    def support(self):
        return (self.pieces[0].lo, self.pieces[-1].hi)

    def _per_piece(self, edges, x, formula):
        """formula(k, xs) for the elements xs of x whose piece is k: the
        one whose [edges[k], edges[k+1]) holds them, clamped to the first
        and last piece.  edges are the breaks in x or the cumulative
        masses in u.  One call per piece; a single element takes its
        piece directly."""
        last = len(self.pieces) - 1
        k = edges.searchsorted(x, side="right") - 1
        if k.size == 1:
            return formula(min(max(k.item(), 0), last), x)
        k = k.clip(0, last)
        out = np.empty_like(x)
        for j in range(last + 1):
            at = k == j
            if at.any():
                out[at] = formula(j, x[at])
        return out

    def _pdf(self, x):
        lo, hi = self.support
        t = self._per_piece(self._breaks, x, lambda k, x: self.pieces[k].pdf(x))
        return np.where((x < lo) | (x > hi), 0.0, t)

    def _cdf(self, x):
        cdf = self._per_piece(self._breaks, x.clip(*self.support),
                              lambda k, x: self._cum[k] + self.pieces[k].mass_to(x))
        return cdf.clip(0.0, 1.0)

    def mean(self):
        return math.fsum(p.moment() for p in self.pieces)

    def quantile(self, u):
        return _number_or_array(
            lambda u: self._per_piece(self._cum, u.clip(0.0, 1.0), self._invert), u)

    def _invert(self, k, u):
        """Bisection on the cdf inside piece k."""
        piece, base = self.pieces[k], self._cum[k]
        lo, hi = np.full_like(u, piece.lo), np.full_like(u, piece.hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            go_right = base + piece.mass_to(mid) < u
            lo = np.where(go_right, mid, lo)
            hi = np.where(go_right, hi, mid)
        return 0.5 * (lo + hi)


class Empirical(ValueDistribution):
    """Distribution given by a sorted sample array."""

    family = "empirical"
    has_density = False

    def __init__(self, samples):
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValidationError("empirical distribution needs at least one sample")
        if not np.isfinite(arr).all():
            raise ValidationError("empirical samples must be finite")
        self.samples = arr

    @property
    def support(self):
        return (float(self.samples[0]), float(self.samples[-1]))

    def _cdf(self, x):
        return np.searchsorted(self.samples, x, side="right") / self.samples.size

    def mean(self):
        return float(self.samples.mean())

    def _quantile(self, u):
        idx = np.clip(np.ceil(u * self.samples.size).astype(int) - 1, 0,
                      self.samples.size - 1)
        return self.samples[idx]

    # draws through quantile like every family; the class keeps its own
    # entry because perfbench/spans.py times Empirical.sample by name
    sample = ValueDistribution.sample


class PointMass(ValueDistribution):
    family = "point"
    has_density = False

    def __init__(self, value):
        self.value = float(value)

    @property
    def support(self):
        return (self.value, self.value)

    def _cdf(self, x):
        return np.where(x >= self.value, 1.0, 0.0)

    def mean(self):
        return self.value

    def _quantile(self, u):
        return np.full_like(u, self.value)


# family -> (constructor, its parameter names in argument order); a
# parameter is read and written under the attribute of the same name
_FAMILIES = {
    "uniform": (Uniform, ("lo", "hi")),
    "exponential": (Exponential, ("rate",)),
    "truncated_exponential": (TruncatedExponential, ("rate", "hi")),
    "piecewise": (PiecewiseDensity, ("pieces",)),
    "empirical": (Empirical, ("samples",)),
    "point": (PointMass, ("value",)),
}

# the two list parameters: (reader element by element, writer); every
# other parameter is one JSON number
_LIST_PARAMS = {
    "pieces": (lambda pieces: [Piece(**{k: _json_number(x, f"piece field {k!r}")
                                        for k, x in pc.items()}) for pc in pieces],
               lambda pieces: [dataclasses.asdict(p) for p in pieces]),
    "samples": (lambda samples: [_json_number(x, "empirical sample") for x in samples],
                lambda samples: samples.tolist()),
}


def dist_from_json(obj) -> ValueDistribution:
    """Build a distribution from {"family": ..., "params": {...}}."""
    if not isinstance(obj, Mapping):
        raise ValidationError(f"a value distribution must be an object, got {obj!r}")
    unknown = set(obj) - {"family", "params"}
    if unknown:
        raise ValidationError(f"unknown distribution key(s): {sorted(unknown)!r}")
    fam = obj.get("family")
    if fam not in _FAMILIES:
        raise ValidationError(f"unknown distribution family {fam!r}")
    build, names = _FAMILIES[fam]
    params = obj.get("params", {})
    try:
        unknown = set(params) - set(names)
        if unknown:
            raise ValidationError(f"unknown {fam} parameter(s): {sorted(unknown)!r}")
        return build(*(_LIST_PARAMS[n][0](params[n]) if n in _LIST_PARAMS
                       else _json_number(params[n], f"{fam} parameter {n!r}")
                       for n in names))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"bad parameters for family {fam!r}: {exc}") from exc


def virtual_value(dist: ValueDistribution, v):
    """phi(v) = v - (1 - T(v)) / t(v) for a number or an array; requires
    positive density at every v."""
    if not dist.has_density:
        raise ValidationError(
            f"virtual value needs a density; {dist.family} has none")

    def phi(v):
        t = dist._pdf(v)
        zero = ~(t > 0.0)
        if zero.any():
            raise ZeroDensity(float(v[zero][0]))
        return v - dist._sf(v) / t

    return _number_or_array(phi, v)


def myerson_reserve(dist: ValueDistribution) -> float:
    """Root of the virtual value, by bisection on [lo, hi] until the
    bracket is 1e-13 wide or two adjacent floats.

    Unbounded supports use the 1 - 1e-12 quantile as the finite upper
    end.  Empirical and point-mass families have no density, so their
    reserve is the sample value maximizing r * P(v >= r).
    """
    if not dist.has_density:
        return _empirical_reserve(dist)
    lo, hi = dist.support
    hi = dist.grid_hi()

    def phi(v):
        try:
            return virtual_value(dist, v)
        except ZeroDensity:
            return -math.inf

    f_lo, f_hi = phi(lo), phi(hi)
    if abs(f_lo) <= 1e-12:
        return lo
    if f_lo > 0.0:
        raise NoRoot(f"phi({lo}) = {f_lo} > 0")
    if f_hi < 0.0:
        raise NoRoot(f"phi({hi}) = {f_hi} < 0")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        # once mid rounds to an end, every later step would keep a and b
        if b - a <= 1e-13 or mid == a or mid == b:
            break
        if phi(mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _empirical_reserve(dist) -> float:
    if isinstance(dist, PointMass):
        return dist.value
    samples = dist.samples
    n = samples.size
    # at candidate r = samples[k], P(v >= r) = (n - k) / n
    revenue = samples * (n - np.arange(n)) / n
    return float(samples[int(np.argmax(revenue))])


@dataclass(frozen=True)
class VirtualValueReport:
    reserve: float
    eta: float
    mhr_ok: bool
    min_slope: float


def mhr_bounded_derivative_check(dist: ValueDistribution,
                                 resolution) -> VirtualValueReport:
    """Estimate phi' on a grid: the hazard-rate condition requires
    phi' >= 1 everywhere on the support, and eta is the largest slope at
    or above the reserve."""
    if not dist.has_density:
        raise ValidationError(f"{dist.family} family has no density to check")
    lo = max(dist.support[0], 0.0)
    hi = dist.grid_hi()
    grid = np.linspace(lo, hi, resolution)
    slopes = np.gradient(virtual_value(dist, grid), grid)
    reserve = myerson_reserve(dist)
    min_slope = float(slopes.min())
    at_or_above = grid >= reserve - (grid[1] - grid[0])
    eta = float(slopes[at_or_above].max())
    return VirtualValueReport(reserve=reserve, eta=eta,
                              mhr_ok=bool(min_slope >= 1.0 - _MHR_SLOPE_TOL),
                              min_slope=min_slope)


def induced_keyword_distribution(bayes, keyword, n_samples, rng) -> Empirical:
    """Empirical distribution of the first advertiser's keyword value
    under the scenario's valuation distributions: draw query values,
    apply the traffic-weighted average that defines the keyword value."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    adv = bayes.advertisers[0]
    nbrs = bayes.graph.keyword_neighbors(keyword)
    wts = np.array([bayes.edge_masses[q, keyword] for q in nbrs])
    total = wts.sum()
    if not total > 0.0:
        raise ValidationError(f"keyword {keyword!r} has zero traffic mass")
    cols = []
    for q in nbrs:
        dist = bayes.dist(adv, q)
        if dist is None:
            cols.append(np.zeros(n_samples))
        else:
            cols.append(np.asarray(dist.sample(rng, n_samples), dtype=float))
    values = np.column_stack(cols) @ (wts / total)
    return Empirical(values)


def ramp_then_plateau_density(eps) -> PiecewiseDensity:
    """Density on [0, 2*eps - eps^2]: a steep polynomial ramp on [0, eps)
    carrying mass eps, then a constant plateau at 1/eps carrying the
    rest.  The cdf at eps is exactly eps and the density is continuous
    and nondecreasing."""
    eps = float(eps)
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"ramp/plateau construction needs 0 < eps < 1/2, got {eps}")
    base = 0.5
    power = 2.0 / eps - 2.0
    ramp = Piece(0.0, eps, const=base, ramp=1.0 / eps - base, power=power)
    plateau = Piece(eps, 2.0 * eps - eps * eps, const=1.0 / eps)
    dist = PiecewiseDensity([ramp, plateau])
    assert abs(dist.cdf(eps) - eps) < 1e-9
    return dist


def plateau_then_spike_density(eps, m_exp) -> PiecewiseDensity:
    """Density on [0, 2**m_exp] with almost all mass in the final window
    of width eps: a near-zero plateau, a shallow ramp reaching density
    2**-(m_exp+1) at 2**m_exp - eps, a linear climb to 2**-m_exp at
    2**m_exp - eps/2, then a quadratic spike holding the remaining
    1 - eps mass.  Nondecreasing and continuous throughout."""
    eps, m_exp = float(eps), int(m_exp)
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"spike construction needs 0 < eps < 1/2, got {eps}")
    try:
        top = 2.0 ** m_exp
    except OverflowError:
        raise ParameterRange(f"2**{m_exp} overflows a float") from None
    x1 = top - eps
    x2 = top - eps / 2.0
    if not x1 < x2 < top:
        raise ParameterRange(f"the spike window of width {eps} below 2**{m_exp} "
                             f"is finer than float spacing there")
    d1 = 2.0 ** (-(m_exp + 1))
    d2 = 2.0 ** (-m_exp)
    ramp_w = min(x1 / 2.0, eps / d1)
    c0 = (eps - d1 * ramp_w / 2.0) / (x1 - ramp_w / 2.0)
    if not 0.0 < c0 <= d1:
        raise ValidationError("spike construction infeasible for these parameters")
    mid_mass = (d1 + d2) / 2.0 * (x2 - x1)
    spike_mass = 1.0 - eps - mid_mass
    spike_w = top - x2
    ramp_coeff = 3.0 * (spike_mass - d2 * spike_w) / spike_w
    if ramp_coeff <= 0.0:
        raise ValidationError("spike construction infeasible for these parameters")
    pieces = [
        Piece(0.0, x1 - ramp_w, const=c0),
        Piece(x1 - ramp_w, x1, const=c0, slope=(d1 - c0) / ramp_w),
        Piece(x1, x2, const=d1, slope=(d2 - d1) / (x2 - x1)),
        Piece(x2, top, const=d2, ramp=ramp_coeff, power=2.0),
    ]
    dist = PiecewiseDensity(pieces)
    assert abs(dist.cdf(x1) - eps) < 1e-9
    assert abs(dist.pdf(x1) - d1) < 1e-12 * max(1.0, d1)
    assert abs(dist.pdf(x2) - d2) < 1e-12 * max(1.0, d2)
    return dist


def bayes_scenario_from_json(source):
    """Load a BayesScenario from a JSON file path or parsed dict.

    Same shape as the deterministic scenario format except `valuations`
    is replaced by `value_dists`: {advertiser: {query: {"family": ...,
    "params": {...}}}}.  It gets the same cross-checks.
    """
    def parse(table):
        return {i: {q: dist_from_json(d) for q, d in row.items()}
                for i, row in table.items()}

    return BayesScenario(*_load_skeleton(source, "bayes scenario", "value_dists", parse))
