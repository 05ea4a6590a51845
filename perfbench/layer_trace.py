"""Per-layer tracing by wrapping junta_lab's public functions from outside.

A *span* target records calls, inclusive seconds and self seconds (span
time minus the time its child spans cover).  A *count* target, used for
per-point functions where a span per call would swamp the run, records
calls only.

Several functions are bound by name in more than one module (``harness``
imports ``to_table`` and the samplers, ``cli`` imports ``dist_to_k_junta``,
``hardgen`` re-exports the ``rng`` names), and ``dist_to_k_junta`` reaches
``dist_to_junta_on`` through a module global.  So the tracer replaces every
``junta_lab`` module attribute that is the original function object, and
restores each one on exit.  Methods are patched once, on their class.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

# (module, attribute, metric key); several attributes may share one key.
SPANS = (
    ("junta_lab.boolfn", "to_table", "boolfn.to_table"),
    ("junta_lab.boolfn", "relevant_variables", "boolfn.relevant_variables"),
    ("junta_lab.boolfn", "TruthTable.serialize", "boolfn.table_io"),
    ("junta_lab.boolfn", "TruthTable.deserialize", "boolfn.table_io"),
    ("junta_lab.hardgen", "sample_yes", "hardgen.sample"),
    ("junta_lab.hardgen", "sample_no", "hardgen.sample"),
    ("junta_lab.hardgen", "sample_d1", "hardgen.sample"),
    ("junta_lab.hardgen", "sample_d2", "hardgen.sample"),
    ("junta_lab.junta_distance", "dist_to_k_junta", "junta_distance.dist_to_k_junta"),
    ("junta_lab.junta_distance", "max_disjoint_bichromatic_matching", "junta_distance.matching"),
    ("junta_lab.tasks", "exact_optimal_advantage", "tasks.exact_optimal_advantage"),
    ("junta_lab.tasks", "sseq_respond", "tasks.respond"),
    ("junta_lab.tasks", "sssq_respond", "tasks.respond"),
    ("junta_lab.tasks", "bayes_decide", "tasks.bayes_decide"),
    ("junta_lab.tasks", "sample_hidden", "tasks.sample_hidden"),
    ("junta_lab.tasks", "is_separating", "tasks.is_separating"),
    ("junta_lab.tasks", "lift_equivalence_gap", "tasks.lift_equivalence_gap"),
    ("junta_lab.binom_stats", "exact_dtv", "binom_stats.exact_dtv"),
    ("junta_lab.harness", "run_all", "harness.run_all"),
    ("junta_lab.harness", "run_experiment", "harness.run_experiment"),
    ("junta_lab.harness", "run_game", "harness.run_game"),
    ("junta_lab.cli", "main", "cli.main"),
    ("junta_lab.params", "derive_params", "params"),
    ("junta_lab.params", "load", "params"),
    ("junta_lab.params", "save", "params"),
)

COUNTS = (
    ("junta_lab.rng", "derive_u64", "rng.derive_u64"),
    ("junta_lab.rng", "RandomStream.__init__", "rng.RandomStream"),
    ("junta_lab.boolfn", "StructuredFn.eval", "boolfn.eval"),
    ("junta_lab.junta_distance", "dist_to_junta_on", "junta_distance.subsets_scanned"),
    ("junta_lab.binom_stats", "hit_prob", "binom_stats.hit_prob"),
)


class Tracer:
    """Context manager that wraps the targets on entry and restores them on exit.

    ``calls``, ``seconds`` (inclusive, outermost call per key) and
    ``self_seconds`` (per layer, the key's first component) accumulate over
    every traced call.  ``digests`` and ``points`` count ``derive_u64``
    calls made inside ``to_table`` and the table entries it produced.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.digests = 0
        self.points = 0
        self._children: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, key in SPANS:
                self._patch(module, attr, key, self._span)
            for module, attr, key in COUNTS:
                self._patch(module, attr, key, self._count)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, module_name: str, attr: str, key: str, make) -> None:
        module = sys.modules[module_name]
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__, key))
            else:
                wrapped = make(raw, key)
            self._patches.append((cls, method, raw))
            setattr(cls, method, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make(original, key)
        if key == "boolfn.to_table":
            wrapped = self._digest_counter(wrapped)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "junta_lab" or name.startswith("junta_lab.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, binding, original))
                    setattr(mod, binding, wrapped)

    def _span(self, fn, key: str):
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        children, depth = self._children, self._depth
        layer = key.split(".")[0]

        @wraps(fn)
        def span(*args, **kwargs):
            depth[key] += 1
            children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self_seconds[layer] += elapsed - inner
                calls[key] += 1
                depth[key] -= 1
                if depth[key] == 0:
                    seconds[key] += elapsed

        return span

    def _count(self, fn, key: str):
        calls = self.calls

        @wraps(fn)
        def count(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return count

    def _digest_counter(self, to_table):
        @wraps(to_table)
        def counted(f):
            before = self.calls["rng.derive_u64"]
            table = to_table(f)
            self.digests += self.calls["rng.derive_u64"] - before
            self.points += 1 << table.n
            return table

        return counted
