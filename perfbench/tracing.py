"""Spans around the library's public functions, recorded from outside src/.

While a Tracer is installed, every module of the package that binds one of
the traced functions sees a wrapper instead, so calls made inside the CLI,
and calls nested in other traced functions, open spans with the right
parent. Removing the tracer restores the original bindings.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    code: str | None
    tags: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _cf_counts(counts, args, kwargs, result):
    counts["pseudomonomials.cf_calls"] += 1
    counts["pseudomonomials.cf_terms"] += len(result)
    # computed, not observed: the sweep visits every nonzero (sigma, tau) pair
    counts["pseudomonomials.candidates"] += 3 ** args[0].n - 1


def _ideal_counts(counts, args, kwargs, result):
    used = 0
    for g in result.gens:
        used |= g.support_mask(result.n)
    counts["polarization.gens"] += len(result.gens)
    counts["polarization.vars_used"] += used.bit_count()


def _oracle_threads(args, kwargs) -> int:
    return kwargs.get("threads", args[1] if len(args) > 1 else 1)


# (module, function, span name, counter hook); span names double as metric prefixes
TRACED = (
    ("codebetti.codes", "parse_code", "codes.parse",
     lambda c, a, k, r: c.update({"codes.words": len(r.words)})),
    ("codebetti.codes", "validate_code", "codes.validate", None),
    ("codebetti.pseudomonomials", "canonical_form", "pseudomonomials.canonical_form", _cf_counts),
    ("codebetti.polarization", "polarized_ideal", "polarization.polarized_ideal", _ideal_counts),
    ("codebetti.graphs", "relationship_graph", "graphs.relationship_graph",
     lambda c, a, k, r: c.update({"graphs.edges": len(r.edges)})),
    ("codebetti.graphs", "chordality", "graphs.chordality", None),
    ("codebetti.piercing", "is_inductively_pierced_fast", "piercing.fast_verdict",
     lambda c, a, k, r: c.update({"piercing.fast_calls": 1, "piercing.pierced": int(r.pierced)})),
    ("codebetti.piercing", "is_inductively_pierced", "piercing.definitional",
     lambda c, a, k, r: c.update({"piercing.definitional_calls": 1})),
    ("codebetti.piercing", "piercing_profile", "piercing.profile", None),
    ("codebetti.betti", "multigraded_betti_closed", "betti.closed", None),
    ("codebetti.betti", "betti_recursive", "betti.recursion", None),
    ("codebetti.betti", "invert_multigraded", "betti.invert", None),
    ("codebetti.oracle", "betti_table_oracle", "oracle.sweep", None),
    ("codebetti.cli", "main", "cli.main",
     lambda c, a, k, r: c.update({"cli.calls": 1})),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory until written out."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.code: str | None = None
        self.last: dict = {}  # span name -> (args, kwargs, result) of its latest call
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.code, tags)

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tags = {"threads": _oracle_threads(args, kwargs)} if name == "oracle.sweep" else {}
            with self.span(name, **tags):
                result = fn(*args, **kwargs)
            self.last[name] = (args, kwargs, result)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind wrappers in every loaded module of codebetti; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "codebetti" or name.startswith("codebetti."))]
        patched = []
        try:
            for module_name, attr, name, hook in TRACED:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    raise RuntimeError(f"traced function {module_name}.{attr} is missing")
                wrapper = self.wrap(name, original, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def busy(self, name: str, under: str | None = None, **tags) -> float:
        """Summed duration of spans called ``name``; ``under`` keeps those with such an ancestor."""
        total = 0.0
        for s in self.spans:
            if s.name != name or any(s.tags.get(k) != v for k, v in tags.items()):
                continue
            if under is not None and not self._has_ancestor(s, under):
                continue
            total += s.seconds
        return total

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the time their direct children cover."""
        child_time = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        return sum(s.seconds - child_time[i] for i, s in enumerate(self.spans) if s.name == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "code": s.code, **s.tags}) + "\n")
