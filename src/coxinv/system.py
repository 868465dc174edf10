"""One Coxeter system with each shared invariant computed once.

A System wraps a CoxeterMatrix together with the resource caps and the
optional enumeration cache directory, and memoises on the instance what
several pipeline stages read: classification, the classified parabolics,
nerve, type-PM verdict, vcd, hyperbolicity, the circle-nerve verdict,
per-length class counts, the per-class growth series, the series-route
rate of each weight vector and the critical exponents of each thickness.
The stage functions take a System, so one report builds each of these
once however many sections read it.

The System owns the caps and the classification of every parabolic a
stage reads.  Only its default caps (and the command line) read the
environment; every function below it that enumerates elements or builds
a complex takes its caps as a required argument.
"""

from functools import cached_property

from . import cache, growth
from .building import critical_exponents
from .conformal import is_nerve_circle, moussong_hyperbolic
from .coxeter import classify_parabolic, spherical_subsets
from .davis import nerve_complex, vcd_real
from .elements import Caps, check_layer_width
from .homology import pm_verdict


class System:
    def __init__(self, M, caps=None, cache_dir=None):
        self.M = M
        self.caps = caps or Caps.from_env()
        self.cache_dir = cache_dir
        self._layers = None     # (depth, counts, source) of the deepest run
        self._rates = {}        # weight values, or None -> GrowthRateEstimate
        self._exponents = {}    # thickness values -> CriticalExponents

    @cached_property
    def classification(self):
        return classify_parabolic(self.M)

    @cached_property
    def parabolics(self):
        """{T: Classification} for every spherical T and every minimal
        non-spherical T, in (size, lex) order."""
        return spherical_subsets(self.M, self.classification)

    @cached_property
    def sphericals(self):
        return [T for T, cls in self.parabolics.items() if cls.is_finite()]

    @cached_property
    def nerve(self):
        return nerve_complex(self)

    @cached_property
    def type_pm(self):
        return pm_verdict(self.nerve)

    @cached_property
    def vcd(self):
        return vcd_real(self)

    @cached_property
    def hyperbolicity(self):
        return moussong_hyperbolic(self)

    @cached_property
    def nerve_is_circle(self):
        return is_nerve_circle(self)

    def layer_counts(self, depth):
        """(per-length {class_vector: count} for lengths 0..depth, source).

        Every growth series is checked against counts to the validation
        depth, so an enumeration never stops short of it: a report's layer
        section and its series checks then share one run.  Shallower
        requests are slices of the deepest run so far and carry its source
        tag; the one tag a report prints is that of its first request.

        The counts come from the cache or from a fresh run, which is then
        stored.  Either way the source tag is counting_route of their ball
        sizes under the caps in force, and every length is held to the
        class-vector cap, so a hit gives what a cold run gives: the same
        counts and tag, or the same ResourceExceeded.
        """
        if self._layers is None or self._layers[0] < depth:
            M, caps = self.M, self.caps
            run_depth = max(depth, growth.DEFAULT_VALIDATION_DEPTH)
            counts = cache.load_layers(self.cache_dir, M.digest(), run_depth)
            if counts is None:
                counts = growth.layer_class_counts(M, run_depth, caps=caps)
                cache.store_layers(self.cache_dir, M.digest(), run_depth,
                                   counts)
            source = growth.counting_route(M, growth.ball_sizes(counts), caps)
            for k, layer in enumerate(counts):
                check_layer_width(layer, k, caps)
            self._layers = (run_depth, counts, source)
        _, counts, source = self._layers
        return counts[:depth + 1], source

    @cached_property
    def series(self):
        """Validated rational growth series, one variable per conjugacy
        class; univariate() gives its one-variable form."""
        return growth.rational_growth_series(self)

    def rate(self, weights=None):
        """Series-route growth rate; weights None means the plain e(W)."""
        key = None if weights is None else weights.values
        if key not in self._rates:
            self._rates[key] = growth.growth_rate(self, weights)
        return self._rates[key]

    def exponents(self, thickness):
        """Critical exponents of the building of this thickness."""
        key = thickness.values
        if key not in self._exponents:
            self._exponents[key] = critical_exponents(self, thickness)
        return self._exponents[key]
