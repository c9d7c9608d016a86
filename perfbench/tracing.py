"""In-process tracer for the benchmark: per-name counts and self time.

`Tracer.install` replaces public functions and methods of `amalgam`
with timing wrappers for the life of a `with` block and puts the
originals back afterwards, so nothing outside the benchmark process
changes.  Every wrapped call adds its duration to its caller's child
time; self time is a span's duration minus the time its children
cover.  The tracer's own work around a wrapped call (its bookkeeping,
the hooks that count ratios) is timed as well and charged to no one's
self time: it goes to `hook_ns`, part of the tracing overhead.
Individual spans, with parent ids, are kept only for the
boundaries the benchmark opens itself (pass, suite, request); layer
calls are aggregated into per-name counters.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

LEVEL_NAMES = ("words.mul.l0", "words.mul.l1", "words.mul.l2", "words.mul.l3")
# every name a wrapper below can record, in the order metrics are reported
LAYER_NAMES = (
    ("matrices.mul", "matrices.inverse", "matrices.generator_ball")
    + ("semidirect.g0_mul", "semidirect.g0_inv", "semidirect.kvector_add",
       "semidirect.kvector_act")
    + LEVEL_NAMES
    + ("words.inv", "words.eq", "words.conj", "words.alphabet", "words.growth", "words.pow")
    + ("grammar.parse", "grammar.format")
    + ("sampling.word", "sampling.reduced_word", "sampling.lattice")
    + ("orbits.diagonal_orbits", "orbits.zero_pattern_partition", "orbits.partitions_agree",
       "orbits.fixed_point_dimension")
    + ("fourier.transform", "fourier.inverse", "fourier.intertwiner", "fourier.projection_en",
       "fourier.convolution")
    + ("tailbound.tail_trace", "tailbound.epsilon_defect", "tailbound.tail_remainder_bound",
       "tailbound.atom_points", "tailbound.deviation_bound_check")
    + ("witness.check_xi_invariance", "witness.block_stabilized",
       "witness.search_invariance_violation", "witness.orthogonality_inequality_check",
       "witness.conditional_expectation")
)


class _Frame:
    __slots__ = ("name", "child_ns", "span")

    def __init__(self, name: str, span: dict | None = None):
        self.name = name
        self.child_ns = 0
        self.span = span


class Tracer:
    """Per-name call counts and self time, plus explicit boundary spans."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[dict] = []
        self.hook_ns = 0  # the tracer's own time around wrapped calls
        # counters for the ratios measured at the call boundary
        self.counts: dict[str, int] = {}
        self.alphabet_keys: set = set()
        self.inverted: set = set()

    # ------------------------------------------------------------------
    def _enter(self, name: str, span: dict | None = None) -> _Frame:
        parent = self.stack[-1].name if self.stack else ""
        key = (parent, name)
        self.edges[key] = self.edges.get(key, 0) + 1
        frame = _Frame(name, span)
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, dur_ns: int) -> int:
        self.stack.pop()
        name = frame.name
        own = dur_ns - frame.child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + own
        if self.stack:
            self.stack[-1].child_ns += dur_ns
        return own

    def _charge_hooks(self, ns: int) -> None:
        """Count `ns` of tracer work as covered, so it is no one's self time."""
        self.hook_ns += ns
        if self.stack:
            self.stack[-1].child_ns += ns

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper; `name` is a string or a function of the call args."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            entered = clock()
            frame = self._enter(name(*args) if callable(name) else name)
            if before is not None:
                before(self, args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._exit(frame, end - start)
            if after is not None:
                after(self, args, result)
            self._charge_hooks(start - entered + clock() - end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, kind: str, label: str, **attrs):
        """A boundary span that is kept individually, with its parent id."""
        parent = self._open_span_id()
        record = {"id": len(self.spans), "parent": parent, "kind": kind, "name": label}
        record.update(attrs)
        self.spans.append(record)
        frame = self._enter(f"{kind}:{label}", record)
        start = self.clock()
        try:
            yield record
        finally:
            end = self.clock()
            own = self._exit(frame, end - start)
            record.update(start_ns=start, end_ns=end, self_ns=own)

    def _open_span_id(self):
        for frame in reversed(self.stack):
            if frame.span is not None:
                return frame.span["id"]
        return None

    def add_leaf_span(self, parent: dict, kind: str, label: str, dur_s: float, **attrs) -> None:
        """A span known only by its duration (for example a check, from its report)."""
        record = {"id": len(self.spans), "parent": parent["id"], "kind": kind, "name": label,
                  "dur_s": dur_s}
        record.update(attrs)
        self.spans.append(record)

    # ------------------------------------------------------------------
    def uncovered_ns(self) -> int:
        """Time inside boundary spans that no layer span covers."""
        return sum(s["self_ns"] for s in self.spans if "self_ns" in s)

    @contextmanager
    def install(self):
        """Wrap the layer entry points of the imported `amalgam` package."""
        patches = _layer_patches(self)
        saved = []
        try:
            for owner, attr, wrapper in patches:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# what gets wrapped: (name, owner, attribute, before hook, after hook)

def _mul_level(tower, a, b, *rest) -> str:
    return LEVEL_NAMES[min(3, max(a.level, b.level))]


def _eq_before(tr, args, kwargs):
    a, b = args[1], args[2]
    if a is b or a == b:
        tr.count("words.eq.structural")


def _alphabet_before(tr, args, kwargs):
    level_cap = kwargs.get("level_cap", args[1] if len(args) > 1 else None)
    block_cap = kwargs.get("block_cap", args[2] if len(args) > 2 else 3)
    tr.alphabet_keys.add((level_cap, block_cap))


def _inverse_before(tr, args, kwargs):
    tr.inverted.add(args[0].rows)


def _g0_mul_before(tr, args, kwargs):
    if args[0].lam.is_identity:
        tr.count("semidirect.g0_mul.identity_lam")


def _convolution_after(tr, args, result):
    tr.count("fourier.convolution.terms", len(args[0].coeffs) * len(args[1].coeffs))
    tr.count("fourier.convolution.keys", len(result.coeffs))


def _layer_patches(tr: Tracer):
    # submodules by import path: the package attribute `fourier` is a function
    fourier, grammar, matrices, orbits, sampling, semidirect, tailbound, witness, words = (
        importlib.import_module(f"amalgam.{m}")
        for m in ("fourier", "grammar", "matrices", "orbits", "sampling", "semidirect",
                  "tailbound", "witness", "words")
    )

    methods = [
        ("matrices.mul", matrices.LambdaMatrix, "__mul__", None, None),
        ("matrices.inverse", matrices.LambdaMatrix, "inverse", _inverse_before, None),
        ("semidirect.g0_mul", semidirect.G0Element, "mul", _g0_mul_before, None),
        ("semidirect.g0_inv", semidirect.G0Element, "inv", None, None),
        ("semidirect.kvector_add", semidirect.KVector, "add", None, None),
        ("semidirect.kvector_act", semidirect.KVector, "act", None, None),
        (_mul_level, words.Tower, "mul", None, None),
        ("words.inv", words.Tower, "inv", None, None),
        ("words.eq", words.Tower, "eq", _eq_before, None),
        ("words.conj", words.Tower, "conj", None, None),
        ("words.alphabet", words.Tower, "alphabet", _alphabet_before, None),
        ("words.growth", words.Tower, "conjugate_growth_profile", None, None),
        ("words.pow", words.GroupWord, "__pow__", None, None),
        ("sampling.word", sampling.Sampler, "word", None, None),
        ("sampling.reduced_word", sampling.Sampler, "reduced_word", None, None),
        ("sampling.lattice", sampling.Sampler, "lattice_word", None, None),
        ("sampling.lattice", sampling.Sampler, "lattice_word_in", None, None),
        ("sampling.lattice", sampling.Sampler, "lattice_word_escaping", None, None),
        ("sampling.lattice", sampling.Sampler, "lattice_vector", None, None),
        ("fourier.convolution", fourier.GroupAlgebraElement, "mul", None, _convolution_after),
    ]
    functions = [
        ("matrices.generator_ball", matrices.generator_ball),
        ("grammar.parse", grammar.parse_element),
        ("grammar.format", grammar.format_element),
        ("orbits.diagonal_orbits", orbits.diagonal_orbits),
        ("orbits.zero_pattern_partition", orbits.zero_pattern_partition),
        ("orbits.partitions_agree", orbits.partitions_agree),
        ("orbits.fixed_point_dimension", orbits.fixed_point_dimension),
        ("fourier.transform", fourier.fourier),
        ("fourier.inverse", fourier.inverse_fourier),
        ("fourier.intertwiner", fourier.check_intertwiner),
        ("fourier.projection_en", fourier.projection_en),
        ("tailbound.tail_trace", tailbound.tail_trace),
        ("tailbound.epsilon_defect", tailbound.epsilon_defect),
        ("tailbound.tail_remainder_bound", tailbound.tail_remainder_bound),
        ("tailbound.atom_points", tailbound.atom_points),
        ("tailbound.deviation_bound_check", tailbound.deviation_bound_check),
        ("witness.check_xi_invariance", witness.check_xi_invariance),
        ("witness.block_stabilized", witness.block_stabilized),
        ("witness.search_invariance_violation", witness.search_invariance_violation),
        ("witness.orthogonality_inequality_check", witness.orthogonality_inequality_check),
        ("witness.conditional_expectation", witness.conditional_expectation),
    ]
    patches = [
        (owner, attr, tr.wrap(name, owner.__dict__[attr], before, after))
        for name, owner, attr, before, after in methods
    ]
    # a module-level function is bound by name in every module that
    # imported it, so each of those bindings is replaced
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "amalgam" or key.startswith("amalgam."))]
    for name, fn in functions:
        wrapper = tr.wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patches.append((module, attr, wrapper))
    return patches
