"""Value distributions, virtual values, and reserve prices.

Analytic families (uniform, exponential, truncated exponential, and
piecewise polynomial-ramp densities) expose exact cdf/mean/quantile.
Empirical distributions are sorted sample arrays.  The virtual value of
a density family is phi(v) = v - (1 - T(v)) / t(v); the revenue-optimal
reserve is its root, found by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NoRoot, ParameterRange, ValidationError, ZeroDensity
from .market import BayesScenario, _json_number, _load_skeleton

_MASS_TOL = 1e-9
_TAIL_QUANTILE = 1.0 - 1e-12  # finite surrogate for unbounded supports
_MHR_SLOPE_TOL = 1e-6  # finite-difference slack on phi' >= 1


class ValueDistribution:
    """Interface: support, cdf, mean, quantile, sample; pdf when
    has_density."""

    family = "abstract"
    has_density = False

    @property
    def support(self):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival 1 - T(x).  Subclasses with an exact tail override this:
        computing 1 - cdf directly loses all precision once cdf is within
        ulp of one, which poisons virtual values on the far tail."""
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        raise NotImplementedError

    def mean(self):
        raise NotImplementedError

    def quantile(self, u):
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
        raise NotImplementedError


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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return out if out.ndim else float(out)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def quantile(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)

    def exact_virtual_slope_cap(self):
        return 2.0

    def to_json(self):
        return {"family": "uniform", "params": {"lo": self.lo, "hi": self.hi}}


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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, self.rate * np.exp(-self.rate * x), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, 1.0 - np.exp(-self.rate * x), 0.0)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, np.exp(-self.rate * x), 1.0)
        return out if out.ndim else float(out)

    def mean(self):
        return 1.0 / self.rate

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def exact_virtual_slope_cap(self):
        return 1.0

    def to_json(self):
        return {"family": "exponential", "params": {"rate": self.rate}}


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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= 0.0) & (x <= self.hi),
                       self.rate * np.exp(-self.rate * x) / self._norm, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((1.0 - np.exp(-self.rate * np.clip(x, 0.0, self.hi))) / self._norm,
                      0.0, 1.0)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = (np.exp(-self.rate * np.clip(x, 0.0, self.hi))
               - math.exp(-self.rate * self.hi)) / self._norm
        out = np.where(x < 0.0, 1.0, np.where(x > self.hi, 0.0, out))
        return out if out.ndim else float(out)

    def mean(self):
        lam, h = self.rate, self.hi
        return 1.0 / lam - h * math.exp(-lam * h) / self._norm

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u * self._norm) / self.rate

    def exact_virtual_slope_cap(self):
        # phi'(v) = 1 + exp(rate * (v - hi)), maximal at v = hi
        return 2.0

    def to_json(self):
        return {"family": "truncated_exponential",
                "params": {"rate": self.rate, "hi": self.hi}}


@dataclass(frozen=True)
class Piece:
    """Density piece on [lo, hi): t(x) = const + slope*(x-lo) +
    ramp*((x-lo)/(hi-lo))**power.  Coefficients are nonnegative so the
    piece is nondecreasing."""

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
        frac = np.clip(u / self.width, 0.0, 1.0)
        out = self.const + self.slope * u + self.ramp * frac ** self.power
        return out if out.ndim else float(out)

    def mass_to(self, x):
        """Integral of the density from lo to x (x inside the piece)."""
        u = np.asarray(x, dtype=float) - self.lo
        frac = np.clip(u / self.width, 0.0, 1.0)
        out = (self.const * u + 0.5 * self.slope * u ** 2
               + self.ramp * self.width / (self.power + 1.0) * frac ** (self.power + 1.0))
        return out if out.ndim else float(out)

    @property
    def mass(self):
        return self.mass_to(self.hi)

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

    def _piece_index(self, x):
        idx = np.searchsorted(self._breaks, x, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        idx = self._piece_index(x)
        flat_x = np.atleast_1d(x)
        flat_i = np.atleast_1d(idx)
        vals = np.array([self.pieces[i].pdf(v) for v, i in zip(flat_x, flat_i)])
        vals[(flat_x < lo) | (flat_x > hi)] = 0.0
        return vals.reshape(x.shape) if x.ndim else float(vals[0])

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        idx = self._piece_index(x)
        flat_x = np.atleast_1d(np.clip(x, lo, hi))
        flat_i = np.atleast_1d(idx)
        vals = np.array([self._cum[i] + self.pieces[i].mass_to(v)
                         for v, i in zip(flat_x, flat_i)])
        vals = np.clip(vals, 0.0, 1.0)
        return vals.reshape(x.shape) if x.ndim else float(vals[0])

    def mean(self):
        return math.fsum(p.moment() for p in self.pieces)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(np.clip(u, 0.0, 1.0))
        pidx = np.clip(np.searchsorted(self._cum, u, side="right") - 1, 0,
                       len(self.pieces) - 1)
        # elements sorted by piece, so that each piece's cdf is one array call
        order = np.argsort(pidx, kind="stable")
        pidx, u = pidx[order], u[order]
        starts = np.searchsorted(pidx, np.arange(len(self.pieces) + 1))
        groups = [(slice(a, b), self._cum[k], piece) for k, (piece, a, b)
                  in enumerate(zip(self.pieces, starts, starts[1:])) if b > a]
        lo = np.array([p.lo for p in self.pieces])[pidx]
        hi = np.array([p.hi for p in self.pieces])[pidx]
        cm = np.empty_like(u)
        # bisection on the cdf inside each piece
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            for sl, base, piece in groups:
                cm[sl] = base + piece.mass_to(mid[sl])
            go_right = cm < u
            lo = np.where(go_right, mid, lo)
            hi = np.where(go_right, hi, mid)
        out = np.empty_like(u)
        out[order] = 0.5 * (lo + hi)
        return float(out[0]) if scalar else out

    def to_json(self):
        return {"family": "piecewise", "params": {"pieces": [
            {"lo": p.lo, "hi": p.hi, "const": p.const, "slope": p.slope,
             "ramp": p.ramp, "power": p.power} for p in self.pieces]}}


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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.samples, x, side="right") / self.samples.size
        return out if out.ndim else float(out)

    def mean(self):
        return float(self.samples.mean())

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.ceil(u * self.samples.size).astype(int) - 1, 0,
                      self.samples.size - 1)
        out = self.samples[idx]
        return out if out.ndim else float(out)

    # draws through quantile like every family; the class keeps its own
    # entry because perfbench/spans.py times Empirical.sample by name
    sample = ValueDistribution.sample

    def to_json(self):
        return {"family": "empirical", "params": {"samples": self.samples.tolist()}}


class PointMass(ValueDistribution):
    family = "point"
    has_density = False

    def __init__(self, value):
        self.value = float(value)

    @property
    def support(self):
        return (self.value, self.value)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.value, 1.0, 0.0)
        return out if out.ndim else float(out)

    def mean(self):
        return self.value

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        out = np.full_like(u, self.value, dtype=float)
        return out if out.ndim else float(out)

    def to_json(self):
        return {"family": "point", "params": {"value": self.value}}


# family -> (constructor, its parameter names in argument order)
_FAMILIES = {
    "uniform": (Uniform, ("lo", "hi")),
    "exponential": (Exponential, ("rate",)),
    "truncated_exponential": (TruncatedExponential, ("rate", "hi")),
    "piecewise": (PiecewiseDensity, ("pieces",)),
    "empirical": (Empirical, ("samples",)),
    "point": (PointMass, ("value",)),
}

# the two list parameters, read element by element; every other
# parameter is one JSON number
_LIST_PARAMS = {
    "pieces": lambda pieces: [Piece(**{k: _json_number(x, f"piece field {k!r}")
                                       for k, x in pc.items()}) for pc in pieces],
    "samples": lambda samples: [_json_number(x, "empirical sample") for x in samples],
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
        return build(*(_LIST_PARAMS[n](params[n]) if n in _LIST_PARAMS
                       else _json_number(params[n], f"{fam} parameter {n!r}")
                       for n in names))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"bad parameters for family {fam!r}: {exc}") from exc


def virtual_value(dist: ValueDistribution, v) -> float:
    """phi(v) = v - (1 - T(v)) / t(v); requires positive density at v."""
    if not dist.has_density:
        raise ValidationError(
            f"virtual value needs a density; {dist.family} has none")
    t = dist.pdf(v)
    if not t > 0.0:
        raise ZeroDensity(v)
    return float(v - dist.sf(v) / t)


def myerson_reserve(dist: ValueDistribution) -> float:
    """Root of the virtual value, by bisection on [lo, hi].

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
        if b - a <= 1e-13:
            break
        mid = 0.5 * (a + b)
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
    phi = np.array([virtual_value(dist, v) for v in grid])
    slopes = np.gradient(phi, grid)
    reserve = myerson_reserve(dist)
    min_slope = float(slopes.min())
    at_or_above = grid >= reserve - (grid[1] - grid[0])
    eta = float(slopes[at_or_above].max())
    return VirtualValueReport(reserve=reserve, eta=eta,
                              mhr_ok=bool(min_slope >= 1.0 - _MHR_SLOPE_TOL),
                              min_slope=min_slope)


def induced_keyword_distribution(bayes, keyword, n_samples, rng,
                                 advertiser=None) -> Empirical:
    """Empirical distribution of the keyword value under the scenario's
    valuation distributions: draw query values, apply the traffic-
    weighted average that defines the keyword value."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    adv = advertiser if advertiser is not None else bayes.advertisers[0]
    nbrs = bayes.graph.keyword_neighbors(keyword)
    wts = np.array([bayes.p.mass(q) * bayes.pi.mass(q, keyword) for q in nbrs])
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
