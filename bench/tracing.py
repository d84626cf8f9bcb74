"""Spans around relprof's public functions, installed from outside the program.

``Tracer.install`` replaces each traced function by a wrapper that records a
span (site, parent span, start, end) in memory.  Modules copy names with
``from .x import f``, so every module-level copy of a traced function (an
*import site*) is found by identity and rebound to its own wrapper; a copy
left unbound would miss calls without any error.  ``structures.canonical_code``
keeps its ``lru_cache``: the wrapper calls the cached function, and hits and
misses are read from ``cache_info()``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

# Functions that get a span, by defining module.  Together with COUNTED this
# covers every function ``relprof.cli`` imports (its classes and constants
# are not calls) and the layer functions named in the benchmark's metrics.
SPANNED = {
    "presentations": ("enumerate_age",),
    "profiles": ("age_of_finite", "profile_sequence", "check_basic_inequality", "check_monotone"),
    "structures": ("restrict", "canonical_code"),
    "canon": ("canonical_code_bytes", "refined_colors"),
    "algebra": ("AgeBasis.build", "AgeBasis.split_table", "e_matrix", "multiply", "e_rank",
                "e_element", "power", "search_zero_divisors"),
    "linalg": ("rank_mod_p", "rank_bareiss", "rank_exact", "nullspace"),
    "incidence": ("build_incidence", "verify_kantor", "matrix_rank", "dump_matrix"),
    "decomposition": ("is_monomorphic_part", "canonical_decomposition",
                      "presentation_decomposition"),
    "tournaments": ("classify",),
    "series": ("fit_rational", "format_poly", "series_from"),
    "fileformat": ("load_source", "builtin", "parse_structure", "write_structure"),
}

# Generators whose items are counted instead of timed: their work interleaves
# with the caller's, so a span would cover only the generator's creation.
COUNTED = {
    "presentations.words_of_size": "presentations.words",
    "presentations.compositions_of_size": "presentations.compositions",
}

# Counts that must repeat exactly across traced passes and PYTHONHASHSEED values.
DETERMINISTIC = (
    "presentations.words",
    "canon.calls",
    "structures.canonical_code.hits",
    "structures.canonical_code.misses",
    "linalg.rank_bareiss.calls",
    "incidence.build_incidence.calls",
)


def _module(short):
    return sys.modules["relprof." + short]


def _import_sites(original):
    """Every (module, attribute, site name) of a relprof module bound to ``original``."""
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("relprof.") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr, f"{module_name[len('relprof.'):]}.{attr}"


class Tracer:
    """Spans of one case; state lives here, not in the traced modules."""

    def __init__(self):
        self.sites = []  # site index -> (span name, site name)
        self.spans = []  # (site index, parent span index or -1, start ns, end ns)
        self.counters = Counter()
        self.site_calls = Counter()
        self._stack = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every import site of every traced function."""
        hooks = {
            "profiles.age_of_finite": self._count_subsets,
            "presentations.enumerate_age": self._count_types(
                _module("presentations").enumerate_age),
        }
        for short, names in SPANNED.items():
            for qualname in names:
                name = f"{short}.{qualname}"
                if "." in qualname:
                    self._install_method(name, _module(short), qualname, hooks.get(name))
                    continue
                original = getattr(_module(short), qualname)
                for module, copy, site in _import_sites(original):
                    setattr(module, copy, self._spanned(name, site, original, hooks.get(name)))
        for name, counter in COUNTED.items():
            short, attr = name.split(".")
            original = getattr(_module(short), attr)
            for module, copy, site in _import_sites(original):
                setattr(module, copy, self._counting(self._site(name, site), counter, original))

    def _install_method(self, name, module, qualname, hook):
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._spanned(name, name, raw.__func__, hook)))
        else:
            setattr(cls, attr, self._spanned(name, name, raw, hook))

    def _site(self, name, site):
        self.sites.append((name, site))
        self.site_calls[site] += 0
        return len(self.sites) - 1

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, site, fn, hook=None):
        site_id = self._site(name, site)
        return functools.wraps(fn)(self.span(site_id, fn, hook))

    def span(self, site_id, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (site_id, parent, start, end)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def top(self, name, fn):
        """A span around a call made by the benchmark itself (``cli.main``)."""
        return self.span(self._site(name, "bench." + name), fn)

    def _counting(self, site_id, counter, fn):
        counters, site_calls = self.counters, self.site_calls
        site = self.sites[site_id][1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            site_calls[site] += 1
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                counters[counter] += items

        return wrapper

    def _count_subsets(self, args, result):
        struct, n = args[0], args[1]
        self.counters["profiles.subsets"] += math.comb(struct.domain_size, n)

    def _count_types(self, cached):
        last = [cached.cache_info().misses]

        def hook(args, result):
            misses = cached.cache_info().misses
            if misses != last[0]:
                self.counters["presentations.types"] += len(result)
                last[0] = misses

        return hook

    # -- results ------------------------------------------------------------

    def summary(self, canonical_code):
        """Per-function (calls, total ns, self ns), per-site calls and counters;
        ``canonical_code`` is the cached original, for its hits and misses."""
        child_ns = [0] * len(self.spans)
        for site_id, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        functions = {}
        for index, (site_id, parent, start, end) in enumerate(self.spans):
            name, site = self.sites[site_id]
            self.site_calls[site] += 1
            entry = functions.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[index]
        counters = dict(self.counters)
        info = canonical_code.cache_info()
        counters["structures.canonical_code.hits"] = info.hits
        counters["structures.canonical_code.misses"] = info.misses
        return {"functions": functions, "sites": dict(self.site_calls), "counters": counters}


# ---------------------------------------------------------------------------
# Per-layer metrics, from summaries summed over a workload's cases
# ---------------------------------------------------------------------------


def merge(summaries):
    functions, sites, counters = {}, Counter(), Counter()
    for s in summaries:
        for name, (calls, total, own) in s["functions"].items():
            entry = functions.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        sites.update(s["sites"])
        counters.update(s["counters"])
    return {"functions": functions, "sites": dict(sites), "counters": dict(counters)}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(merged, overhead_frac):
    """name -> (value, unit), in the order of BENCHMARK.json's per_layer list."""
    functions, counters = merged["functions"], merged["counters"]

    def calls(name):
        return functions.get(name, (0, 0, 0))[0]

    def self_s(*names):
        return sum(functions.get(name, (0, 0, 0))[2] for name in names) / 1e9

    words = counters.get("presentations.words", 0)
    compositions = counters.get("presentations.compositions", 0)
    hits = counters.get("structures.canonical_code.hits", 0)
    misses = counters.get("structures.canonical_code.misses", 0)
    canon_s = self_s("canon.canonical_code_bytes", "canon.refined_colors")
    mod_p, bareiss = calls("linalg.rank_mod_p"), calls("linalg.rank_bareiss")
    rows = [
        ("profiles.age_of_finite.calls", calls("profiles.age_of_finite"), "count"),
        ("profiles.age_of_finite.self_s", self_s("profiles.age_of_finite"), "s"),
        ("profiles.subsets", counters.get("profiles.subsets", 0), "count"),
        ("presentations.enumerate_age.calls", calls("presentations.enumerate_age"), "count"),
        ("presentations.enumerate_age.self_s", self_s("presentations.enumerate_age"), "s"),
        ("presentations.words", words, "count"),
        ("presentations.compositions", compositions, "count"),
        ("presentations.type_yield",
         _ratio(counters.get("presentations.types", 0), words + compositions), "ratio"),
        ("structures.restrict.calls", calls("structures.restrict"), "count"),
        ("structures.restrict.self_s", self_s("structures.restrict"), "s"),
        ("structures.canonical_code.hits", hits, "count"),
        ("structures.canonical_code.misses", misses, "count"),
        ("structures.canonical_code.hit_ratio", _ratio(hits, hits + misses), "ratio"),
        ("canon.calls", calls("canon.canonical_code_bytes"), "count"),
        ("canon.self_s", canon_s, "s"),
        ("canon.refine_s", self_s("canon.refined_colors"), "s"),
        ("canon.us_per_call", 1e6 * _ratio(canon_s, calls("canon.canonical_code_bytes")), "us"),
        ("algebra.build.self_s", self_s("algebra.AgeBasis.build"), "s"),
        ("algebra.split_table.calls", calls("algebra.AgeBasis.split_table"), "count"),
        ("algebra.split_table.self_s", self_s("algebra.AgeBasis.split_table"), "s"),
        ("algebra.e_matrix.self_s", self_s("algebra.e_matrix"), "s"),
        ("algebra.multiply.calls", calls("algebra.multiply"), "count"),
        ("linalg.rank_mod_p.calls", mod_p, "count"),
        ("linalg.rank_mod_p.self_s", self_s("linalg.rank_mod_p"), "s"),
        ("linalg.rank_bareiss.calls", bareiss, "count"),
        ("linalg.rank_bareiss.self_s", self_s("linalg.rank_bareiss"), "s"),
        ("linalg.nullspace.calls", calls("linalg.nullspace"), "count"),
        ("linalg.nullspace.self_s", self_s("linalg.nullspace"), "s"),
        # every rank query runs the mod-p certificate once and Bareiss only when it fails
        ("linalg.certified_ratio", _ratio(mod_p - bareiss, mod_p), "ratio"),
        ("incidence.build_incidence.calls", calls("incidence.build_incidence"), "count"),
        ("incidence.build_incidence.self_s", self_s("incidence.build_incidence"), "s"),
        ("incidence.verify_kantor.self_s", self_s("incidence.verify_kantor"), "s"),
        ("decomposition.is_monomorphic_part.calls",
         calls("decomposition.is_monomorphic_part"), "count"),
        ("decomposition.is_monomorphic_part.self_s",
         self_s("decomposition.is_monomorphic_part"), "s"),
        ("decomposition.canonical_decomposition.self_s",
         self_s("decomposition.canonical_decomposition"), "s"),
        ("tournaments.classify.self_s", self_s("tournaments.classify"), "s"),
        ("series.fit_rational.self_s", self_s("series.fit_rational"), "s"),
        ("fileformat.load_source.self_s", self_s("fileformat.load_source"), "s"),
        ("cli.self_s", self_s("cli.main"), "s"),
        ("trace.overhead_frac", overhead_frac, "ratio"),
    ]
    return {name: (value, unit) for name, value, unit in rows}


def deterministic_counts(merged):
    values = dict(merged["counters"])
    values["canon.calls"] = merged["functions"].get("canon.canonical_code_bytes", (0,))[0]
    for name in ("linalg.rank_bareiss", "incidence.build_incidence"):
        values[name + ".calls"] = merged["functions"].get(name, (0,))[0]
    return {name: values.get(name, 0) for name in DETERMINISTIC}
