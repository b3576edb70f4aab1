"""Spans around the public functions of each `tamedeg` module.

The tracer replaces a function, or a method on its class, by a wrapper
that records one span per call: (id, parent id, op id, name, start ns,
end ns, settled ns, tag).  Spans stay in memory until the run writes
them out.  Counts that the metrics need beyond calls and times are
computed from arguments and results after `end` is taken; `settled` is
taken once they are done.  A span's own time runs from `start` to `end`,
while its caller loses `start` to `settled`, so the counting is charged
to neither.  A call that raises records no span.  Nothing in `src/`
changes.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import Counter, defaultdict


def membership_steps(l: int, a: int, b: int, result) -> int:
    """Candidates t that `semigroup.membership(l, a, b)` tries: 0..t when it
    finds (s, t), every t up to l // b when it finds none, and none at all
    when gcd(a, b) does not divide l."""
    if result is not None:
        return result[1] + 1
    return 0 if l % math.gcd(a, b) else l // b + 1


def support_cols(degrees, target: int, cap: int | None) -> int:
    """Columns of the reduction system, the (s, t) != (0, 0) with
    s*deg F_j + t*deg F_k <= cap; zero when the search stops first."""
    dj, dk = (degrees[i] for i in range(3) if i != target)
    d = degrees[target]
    if dj < 1 or dk < 1 or d < 2:
        return 0
    cap = 2 * d if cap is None else cap
    if cap < d:
        return 0
    return sum((cap - s * dj) // dk + 1 for s in range(cap // dj + 1)) - 1


def _mul_counts(counts, args, kwargs, result):
    if result is NotImplemented:
        return
    a, b = args
    counts["polynomials.mul.term_pairs"] += len(a) * (len(b) if type(b) is type(a) else 1)
    counts["polynomials.mul.out_terms"] += len(result)
    # The slot itself: terms() would copy the dict on every product.
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in result._terms.values()), default=0)
    if bits > counts["polynomials.mul.max_coeff_bits"]:
        counts["polynomials.mul.max_coeff_bits"] = bits


def _compose_word_counts(counts, args, kwargs, result):
    counts["automorphisms.compose_word.steps"] += len(args[0])


def _membership_counts(counts, args, kwargs, result):
    counts["semigroup.membership.steps"] += membership_steps(*args[:3], result)


def _reduction_counts(counts, args, kwargs, result):
    pmap, target = args[:2]
    cap = args[2] if len(args) > 2 else kwargs.get("support_degree_cap")
    degrees = [c.degree() for c in pmap.components]
    counts["reduction.support_cols"] += support_cols(degrees, target, cap)
    counts["reduction.found"] += result is not None


def _verify_counts(counts, args, kwargs, result):
    counts["verify.verify_example.checks_failed"] += len(result.failures())


def _parse_counts(counts, args, kwargs, result):
    counts["parsing.parse.bytes"] += len(args[0].encode())


def _format_counts(counts, args, kwargs, result):
    counts["parsing.format.bytes"] += len(result.encode())


def _reason_tag(result):
    return result.reason


# (span name, module, class or None, attribute, counts hook, tag of the result)
TRACED = (
    ("polynomials.mul", "polynomials", "Polynomial", "__mul__", _mul_counts, None),
    ("polynomials.add", "polynomials", "Polynomial", "__add__", None, None),
    ("polynomials.pow", "polynomials", "Polynomial", "__pow__", None, None),
    ("polynomials.compose", "polynomials", "Polynomial", "compose", None, None),
    ("polynomials.derivative", "polynomials", "Polynomial", "derivative", None, None),
    ("automorphisms.witness_equal_pair", "automorphisms", None, "witness_equal_pair", None, None),
    ("automorphisms.witness_semigroup", "automorphisms", None, "witness_semigroup", None, None),
    ("automorphisms.witness_linear_first", "automorphisms", None, "witness_linear_first", None, None),
    ("automorphisms.compose_word", "automorphisms", None, "compose_word", _compose_word_counts, None),
    ("automorphisms.jacobian_det", "automorphisms", "PolyMap", "jacobian_det", None, None),
    ("automorphisms.build_example_map", "automorphisms", None, "build_example_map", None, None),
    ("semigroup.membership", "semigroup", None, "membership", _membership_counts, None),
    ("decision.decide", "decision", None, "decide", None, _reason_tag),
    ("poisson.poisson_bracket", "poisson", None, "poisson_bracket", None, None),
    ("reduction.find_elementary_reduction", "reduction", None, "find_elementary_reduction",
     _reduction_counts, None),
    ("verify.verify_example", "verify", None, "verify_example", _verify_counts, None),
    ("parsing.parse", "parsing", None, "parse_polynomial", _parse_counts, None),
    ("parsing.format", "parsing", None, "format_polynomial", _format_counts, None),
    ("cli.main", "cli", None, "main", None, None),
)


class Tracer:
    """Wraps the TRACED functions of a loaded `tamedeg` and records spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    def wrap(self, name, fn, hook=None, tag=None):
        spans, counts, stack, ids = self.spans, self.counts, self._stack, self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            label = None if tag is None else tag(result)
            spans.append((sid, stack[-1], self.op_id, name, start, end, clock(), label))
            return result

        return traced

    def install(self) -> None:
        """Replace each TRACED function wherever the loaded package refers to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "tamedeg" or key.startswith("tamedeg."))]
        for name, module, cls, attr, hook, tag in TRACED:
            owner = sys.modules[f"tamedeg.{module}"]
            if cls is not None:
                owner = getattr(owner, cls)
                targets = [owner]
            else:
                targets = modules
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook, tag)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._undo.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end, settled, tag in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                         "start_ns": start, "end_ns": end, "settled_ns": settled,
                                         "tag": tag}) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration, start to end, minus the part of it that its
    children cover, each from its start to its settled time."""
    children = defaultdict(list)
    for sid, parent, _op, _name, start, _end, settled, _tag in spans:
        children[parent].append((start, settled))
    out = {}
    for sid, _parent, _op, _name, start, end, _settled, _tag in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = end - start - covered
    return out


def layer_metrics(spans, counts, overhead_ratio: float, names) -> dict[str, float]:
    """The value of each per-layer metric in `names`, from the spans and the
    computed counts; 0 for a layer the spans never reach."""
    own = self_times(spans)
    values = Counter(counts)
    for sid, _parent, _op, name, start, end, _settled, tag in spans:
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += own[sid] / 1e9
        if tag is not None:
            values[f"decision.reason.{tag}"] += 1
            values[f"decision.reason_s.{tag}"] += (end - start) / 1e9
    calls = values["reduction.find_elementary_reduction.calls"]
    values["reduction.found_ratio"] = values["reduction.found"] / calls if calls else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: values.get(name, 0) for name in names}
