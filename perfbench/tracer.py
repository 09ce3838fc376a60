"""Per-layer tracing by wrapping domcone's public functions from outside.

Nothing in the package changes: :class:`Tracer` replaces each traced
function in every ``domcone`` module namespace that bound it (the
modules import functions by name, so patching the defining module alone
would miss most callers) and restores the originals on exit.

Fine-grained calls (eigensolves, GOE draws, operator evaluations,
``acdo`` roots) are counted and timed in aggregate.  Coarse calls
(suite groups, inclusion checks, boundary sampling, aperture and
annihilation checks, quadrature, ``cli.main``) also get a span with its
parent's id, kept in memory and written out when the run ends.  All
times are inclusive: an eigensolve made inside a GOE draw counts in both.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

#: Fine-grained functions: (module, attribute, counter name).
FINE = (
    ("domcone.symmat", "eigvals_sym", "symmat.eig"),
    ("domcone.symmat", "eigh_sym", "symmat.eig"),
    ("domcone.sampling", "goe_matrix", "sampling.goe"),
    ("domcone.operators", "eval_dominative", "operators.eval"),
    ("domcone.operators", "eval_pucci", "operators.eval"),
    ("domcone.operators", "eval_support", "operators.eval"),
    ("domcone.operators", "eval_example", "operators.eval"),
    ("domcone.acdo", "acdo_root", "acdo.root"),
)

#: Coarse functions: (module, attribute, span name).
COARSE = (
    ("domcone.cones", "check_inclusion", "cones.check"),
    ("domcone.cones", "boundary_sample", "cones.sample"),
    ("domcone.aperture", "body_cone_aperture", "aperture.aperture"),
    ("domcone.aperture", "minimal_bound_check", "aperture.bound"),
    ("domcone.fundsol", "verify_annihilation", "fundsol.annihilation"),
    ("domcone.fundsol", "sobolev_integral_quadrature", "fundsol.quad"),
    ("domcone.cli", "main", "cli.main"),
)


class Tracer:
    """Counters, aggregate times and spans for one traced stretch of work.

    Use as a context manager; ``catalog_oracles`` holds the ids of oracles
    built by ``oracle_from_operator``, which splits inclusion checks into
    catalog and generic (user predicate or congruence image) ones.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.spans: list[dict] = []
        self.catalog_oracles: set[int] = set()
        self._open: list[int] = []  # ids of open spans, innermost last
        self._group: str | None = None  # suite group being run
        self._sampling = 0  # depth of boundary_sample calls
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import domcone.cli  # noqa: F401  (loads every module to be patched)
        from domcone import acdo, operators, suite

        for mod, attr, name in FINE:
            self._patch(mod, attr, self._fine(name, getattr(sys.modules[mod], attr)))
        for mod, attr, name in COARSE:
            self._patch(mod, attr, self._coarse(name, getattr(sys.modules[mod], attr)))
        self._patch("domcone.acdo", "oracle_from_operator", self._catalog(acdo.oracle_from_operator))
        linear = operators.LinearTrace
        self._restore.append((linear, "value", linear.value))
        linear.value = self._fine("operators.eval", linear.value)
        for group, fn in list(suite.GROUPS.items()):
            self._restore.append((suite.GROUPS, group, fn))
            suite.GROUPS[group] = self._group_runner(group, fn)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    def _patch(self, mod: str, attr: str, wrapper) -> None:
        orig = getattr(sys.modules[mod], attr)
        for name, module in list(sys.modules.items()):
            if (name == "domcone" or name.startswith("domcone.")) and getattr(module, attr, None) is orig:
                self._restore.append((module, attr, orig))
                setattr(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _fine(self, name: str, fn):
        counts, seconds = self.counts, self.seconds
        is_eig = name == "symmat.eig"
        is_root = name == "acdo.root"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            out = fn(*args, **kwargs)
            seconds[name] += _clock() - t0
            counts[name] += 1
            if is_eig and self._group is not None:
                counts["suite.eig." + self._group] += 1
            if is_root:
                counts["acdo.probes"] += out.probes
                counts["acdo.expansions"] += out.probes - out.iterations - 1
                if self._sampling:
                    counts["cones.projections"] += 1
            return out

        return wrapper

    def _span(self, name: str, fn, args, kwargs):
        span = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(span["id"])
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            self._open.pop()
            span["start"], span["end"] = t0, t1
            self.seconds[name] += t1 - t0
            self.counts[name] += 1

    def _coarse(self, name: str, fn):
        if name == "cones.check":

            @functools.wraps(fn)
            def check(oracle, B, *args, **kwargs):
                generic = B is not None or id(oracle) not in self.catalog_oracles
                kind = "cones.check.generic" if generic else "cones.check.catalog"
                return self._span(kind, fn, (oracle, B) + args, kwargs)

            return check
        if name == "cones.sample":

            @functools.wraps(fn)
            def sample(*args, **kwargs):
                self._sampling += 1
                try:
                    out = self._span(name, fn, args, kwargs)
                finally:
                    self._sampling -= 1
                self.counts["cones.samples_kept"] += len(out)
                return out

            return sample

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return wrapper

    def _catalog(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            oracle = fn(*args, **kwargs)
            self.catalog_oracles.add(id(oracle))
            return oracle

        return wrapper

    def _group_runner(self, group: str, fn):
        def run(seed):
            outer, self._group = self._group, group
            try:
                return self._span("suite.group." + group, fn, (seed,), {})
            finally:
                self._group = outer

        return run

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        """Zero the counters and times; spans and catalog oracles stay."""
        self.counts.clear()
        self.seconds.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer counts and times of everything traced so far."""
        from domcone.suite import GROUPS

        c, s = self.counts, self.seconds
        eig = c["symmat.eig"]
        roots = c["acdo.root"]
        proj = c["cones.projections"]
        out = {
            "symmat.eigensolves": (eig, "count"),
            "symmat.eig_ms": (1e3 * s["symmat.eig"], "ms"),
            "symmat.eig_us_per_call": (1e6 * s["symmat.eig"] / max(eig, 1), "us"),
            "sampling.goe_draws": (c["sampling.goe"], "count"),
            "sampling.goe_ms": (1e3 * s["sampling.goe"], "ms"),
            "operators.evals": (c["operators.eval"], "count"),
            "operators.eval_ms": (1e3 * s["operators.eval"], "ms"),
            "acdo.roots": (roots, "count"),
            "acdo.probes": (c["acdo.probes"], "count"),
            "acdo.probes_per_root": (c["acdo.probes"] / max(roots, 1), "ratio"),
            "acdo.expansions": (c["acdo.expansions"], "count"),
            "acdo.root_ms": (1e3 * s["acdo.root"], "ms"),
            "cones.projections": (proj, "count"),
            "cones.samples_kept": (c["cones.samples_kept"], "count"),
            "cones.keep_ratio": (c["cones.samples_kept"] / max(proj, 1), "ratio"),
            "cones.sample_ms": (1e3 * s["cones.sample"], "ms"),
            "cones.check_ms.catalog": (1e3 * s["cones.check.catalog"], "ms"),
            "cones.check_ms.generic": (1e3 * s["cones.check.generic"], "ms"),
            "aperture.apertures": (c["aperture.aperture"], "count"),
            "aperture.ms": (1e3 * s["aperture.aperture"], "ms"),
            "aperture.bound_ms": (1e3 * s["aperture.bound"], "ms"),
            "fundsol.annihilation_ms": (1e3 * s["fundsol.annihilation"], "ms"),
            "fundsol.quad_ms": (1e3 * s["fundsol.quad"], "ms"),
            "cli.main_ms": (1e3 * s["cli.main"], "ms"),
        }
        for group in GROUPS:
            out["suite.group_s." + group] = (s["suite.group." + group], "s")
            out["suite.eigensolves." + group] = (c["suite.eig." + group], "count")
        return out
