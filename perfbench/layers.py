"""Per-layer tracing for the traced benchmark run.

The benchmark wraps the public entry points of each program module from
its own code (nothing inside ``src/`` changes).  Every wrapped call becomes
a span — layer name, start, end, parent span, round — kept in memory and
written out once the run ends.  A layer's *self time* is its spans'
duration minus the time of the wrapped spans nested inside them, so the
layer totals add up to the traced wall time without double counting.

Wrapping happens in two stages so that set-up and run-phase numbers stay
apart: :func:`install_setup_layers` before the dataset is generated, and
:func:`install_run_layers` once set-up is done (the run-phase totals start
from zero there).
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span recorder with per-layer self-time totals."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent_index, round]`` per span, in start order.
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.round: int | None = None
        self._stack: list[list] = []  # [span index, time spent in child spans]

    def reset_totals(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        start = perf_counter()
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([layer, start, None, parent, self.round])
        self._stack.append([index, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            _, child_time = self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index][2] = end
            self.calls[layer] += 1
            self.self_s[layer] += duration - child_time

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``count(counts, args, result)`` may add layer counters from the
        call's arguments and result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.call(layer, original, *args, **kwargs)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_context(self, owner, attr: str, layer: str) -> None:
        """Trace a method returning a context manager, entry and exit included."""
        original = getattr(owner, attr)
        tracer = self

        class _Traced:
            def __init__(self, manager):
                self.manager = manager

            def __enter__(self):
                return tracer.call(layer, self.manager.__enter__)

            def __exit__(self, *exc):
                return tracer.call(layer, self.manager.__exit__, *exc)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return _Traced(tracer.call(layer, original, *args, **kwargs))

        setattr(owner, attr, traced)

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (layer, start, end, parent, round_) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "layer": layer,
                            "round": round_,
                            "start": start,
                            "end": end,
                        }
                    )
                )
                out.write("\n")


def install_setup_layers(tracer: Tracer) -> None:
    """Trace dataset generation, text encoding and the inadequacy-scorer fit."""
    import repro.graph.datasets as datasets
    import repro.graph.generators as generators
    from repro.core.inadequacy import TextInadequacyScorer
    from repro.text import encoders

    tracer.wrap(generators, "generate_tag", "graph.generate")
    datasets.generate_tag = generators.generate_tag  # imported there by name
    for name in ("BagOfWordsEncoder", "TfidfEncoder", "LSAEncoder", "HashingEncoder"):
        tracer.wrap(getattr(encoders, name), "fit_transform", "text.encode")
    tracer.wrap(TextInadequacyScorer, "fit", "ml.scorer_fit")


def _count_bfs(counts, args, result) -> None:
    counts["graph.bfs_nodes"] += sum(int(layer.size) for layer in result.values())


def _count_candidates(counts, args, result) -> None:
    counts["boost.candidate_evals"] += len(args[2])  # (self, engine, unexecuted, ...)


def _count_prefix(counts, args, result) -> None:
    counts["mqo.shared_tokens"] += result.report.shared_tokens


def _count_llm(counts, args, result) -> None:
    counts["llm.prompt_tokens"] += result.prompt_tokens


def _count_wave(counts, args, result) -> None:
    counts["scheduler.batches"] += result.stats.num_batches


def _count_serve(counts, args, result) -> None:
    counts["serve.cycles"] += result.cycles


def install_run_layers(tracer: Tracer) -> None:
    """Trace every run-phase layer and zero the totals."""
    import repro.graph.sampling as sampling
    import repro.runtime.scheduler as scheduler_module
    from repro.core.boosting import BoostingStepper, QueryBoostingStrategy
    from repro.core.pruning import TokenPruningStrategy
    from repro.llm.interface import LLMClient
    from repro.mqo.compression import PromptCompressor
    from repro.obs.instrument import Instrumentation
    from repro.prompts.builder import PromptBuilder
    from repro.runtime.engine import MultiQueryEngine
    from repro.runtime.scheduler import QueryScheduler
    from repro.runtime.serve import ServingLayer
    from repro.selection.base import VanillaSelector
    from repro.selection.random_khop import KHopRandomSelector
    from repro.selection.sns import SNSSelector
    from repro.text.tokenizer import Tokenizer

    # Callers look bfs_hops up in the sampling module at call time.
    tracer.wrap(sampling, "bfs_hops", "graph.bfs", _count_bfs)
    for selector in (SNSSelector, KHopRandomSelector, VanillaSelector):
        tracer.wrap(selector, "select", "selection.select")
    tracer.wrap(BoostingStepper, "step", "boost.round")
    tracer.wrap(QueryBoostingStrategy, "_candidates", "boost.candidates", _count_candidates)
    tracer.wrap(TokenPruningStrategy, "plan_by_tau", "pruning.plan")
    tracer.wrap(PromptBuilder, "zero_shot", "prompts.build")
    tracer.wrap(PromptBuilder, "with_neighbors", "prompts.build")
    tracer.wrap(Tokenizer, "tokenize", "text.tokenize")
    tracer.wrap(Tokenizer, "words", "text.tokenize")
    tracer.wrap(PromptCompressor, "compress", "mqo.compress")
    # The scheduler imported the planner by name, so wrap it where it is used.
    tracer.wrap(scheduler_module, "plan_prefix_batches", "mqo.prefix_plan", _count_prefix)
    tracer.wrap(LLMClient, "complete", "llm.complete", _count_llm)
    tracer.wrap(MultiQueryEngine, "execute_query", "engine.query")
    tracer.wrap(QueryScheduler, "run_wave", "scheduler.wave", _count_wave)
    tracer.wrap(ServingLayer, "replay", "serve.replay", _count_serve)
    for name in dir(Instrumentation):
        if name.startswith("on_"):
            tracer.wrap(Instrumentation, name, "obs.hook")
    tracer.wrap_context(Instrumentation, "span", "obs.hook")
    tracer.reset_totals()


#: Every per-layer metric with its unit and better direction, in report
#: order.  Work counts are better lower (less work for the same queries);
#: shared tokens and settled queries are better higher.  The traced run
#: fills the ``mem.*`` and ``run.*`` entries itself; ``run.*`` give the
#: traced run phase's wall time and settled count, from which the tracing
#: overhead follows against an untraced run's ``queries_per_s``.
PER_LAYER = {
    "graph.generate_s": ("s", "lower"),
    "text.encode_s": ("s", "lower"),
    "ml.scorer_fit_s": ("s", "lower"),
    "graph.bfs_calls": ("count", "lower"),
    "graph.bfs_s": ("s", "lower"),
    "graph.bfs_nodes": ("count", "lower"),
    "selection.select_calls": ("count", "lower"),
    "selection.select_s": ("s", "lower"),
    "boost.rounds": ("count", "lower"),
    "boost.candidate_evals": ("count", "lower"),
    "boost.candidates_s": ("s", "lower"),
    "pruning.plan_s": ("s", "lower"),
    "prompts.build_calls": ("count", "lower"),
    "prompts.build_s": ("s", "lower"),
    "text.tokenize_calls": ("count", "lower"),
    "text.tokenize_s": ("s", "lower"),
    "mqo.compress_calls": ("count", "lower"),
    "mqo.compress_s": ("s", "lower"),
    "mqo.prefix_plan_s": ("s", "lower"),
    "mqo.shared_tokens": ("tokens", "higher"),
    "llm.calls": ("count", "lower"),
    "llm.complete_s": ("s", "lower"),
    "llm.prompt_tokens": ("tokens", "lower"),
    "engine.query_calls": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "scheduler.waves": ("count", "lower"),
    "scheduler.batches": ("count", "lower"),
    "scheduler.self_s": ("s", "lower"),
    "serve.cycles": ("count", "lower"),
    "serve.self_s": ("s", "lower"),
    "obs.hook_calls": ("count", "lower"),
    "obs.hook_s": ("s", "lower"),
    "mem.rss_after_setup_mb": ("MB", "lower"),
    "mem.rss_after_run_mb": ("MB", "lower"),
    "run.wall_s": ("s", "lower"),
    "run.settled": ("count", "higher"),
}


def layer_values(tracer: Tracer, setup_self_s: dict[str, float]) -> dict[str, float]:
    """The traced layer metrics: set-up layers from ``setup_self_s``, the
    rest from the run-phase totals."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    return {
        "graph.generate_s": setup_self_s.get("graph.generate", 0.0),
        "text.encode_s": setup_self_s.get("text.encode", 0.0),
        "ml.scorer_fit_s": setup_self_s.get("ml.scorer_fit", 0.0),
        "graph.bfs_calls": calls["graph.bfs"],
        "graph.bfs_s": self_s["graph.bfs"],
        "graph.bfs_nodes": counts["graph.bfs_nodes"],
        "selection.select_calls": calls["selection.select"],
        "selection.select_s": self_s["selection.select"],
        "boost.rounds": calls["boost.round"],
        "boost.candidate_evals": counts["boost.candidate_evals"],
        "boost.candidates_s": self_s["boost.candidates"],
        "pruning.plan_s": self_s["pruning.plan"],
        "prompts.build_calls": calls["prompts.build"],
        "prompts.build_s": self_s["prompts.build"],
        "text.tokenize_calls": calls["text.tokenize"],
        "text.tokenize_s": self_s["text.tokenize"],
        "mqo.compress_calls": calls["mqo.compress"],
        "mqo.compress_s": self_s["mqo.compress"],
        "mqo.prefix_plan_s": self_s["mqo.prefix_plan"],
        "mqo.shared_tokens": counts["mqo.shared_tokens"],
        "llm.calls": calls["llm.complete"],
        "llm.complete_s": self_s["llm.complete"],
        "llm.prompt_tokens": counts["llm.prompt_tokens"],
        "engine.query_calls": calls["engine.query"],
        "engine.self_s": self_s["engine.query"],
        "scheduler.waves": calls["scheduler.wave"],
        "scheduler.batches": counts["scheduler.batches"],
        "scheduler.self_s": self_s["scheduler.wave"],
        "serve.cycles": counts["serve.cycles"],
        "serve.self_s": self_s["serve.replay"],
        "obs.hook_calls": calls["obs.hook"],
        "obs.hook_s": self_s["obs.hook"],
    }
