"""The benchmark's three workloads, each loading a different layer.

A workload is set up once per process (dataset replica, split, scorer fit
where it needs one) and then runs whole *rounds*: one strategy execution
over a fresh query sample, or one replay of a fresh request stream.  Each
round builds its own engine, clock, scheduler and ledgers, so no round
reads another's label state or spend.  Query samples and request streams
come from the benchmark seed and the round number; the program receives
only the generated inputs.

Why these three: ``boost-sns-products`` spends its run phase in SNS
neighbor selection's 5-hop BFS, ``joint-1hop-arxiv`` in the inadequacy
scorer fit (set-up) and many cheap boosting re-selections, and
``serve-mqo-cora`` in prompt rendering, tokenization, MQO planning,
scheduling, serving and observer hooks.  A change to one layer therefore
has a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.boosting import QueryBoostingStrategy
from repro.core.budget import BudgetLedger
from repro.core.joint import JointStrategy
from repro.core.pruning import TokenPruningStrategy
from repro.experiments.common import load_setup
from repro.experiments.table4 import fit_scorer
from repro.llm.pricing import cache_discount_usd, cost_usd
from repro.llm.reliability import LatencyLLM, SimulatedClock
from repro.mqo.compression import PromptCompressor
from repro.obs import Instrumentation
from repro.runtime.fallback import DegradationLadder
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.serve import AdmissionPolicy, ServingLayer, TenantSpec, synthetic_stream

import checks

#: Priced model every workload queries (its simulated twin answers).
MODEL = "gpt-3.5"

#: Batched dispatch shared by every workload: 8 queries per batch over 4
#: virtual workers, simulated (canonical-order) mode.
BATCH_SIZE = 8
VIRTUAL_WORKERS = 4


@dataclass
class Round:
    """What one round produced, reduced to the figures the metrics need."""

    settled: int
    failed: int
    correct: int
    paid_tokens: int
    usd: float
    sim_makespan_s: float
    #: Simulated arrival-to-completion seconds of every answered query.
    latencies: list[float]
    digest: str
    problems: list[str] = field(default_factory=list)


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _record_rows(records) -> list:
    return [
        [r.node, r.predicted_label, r.prompt_tokens, r.completion_tokens,
         r.num_neighbors, r.pruned, r.round_index, r.outcome, r.compressed]
        for r in records
    ]


def _unlabeled(setup) -> np.ndarray:
    """Every node outside the labeled set: the population queries come from."""
    return np.setdiff1d(np.arange(setup.graph.num_nodes), setup.split.labeled)


def _sample(pool: np.ndarray, size: int, seed: int, round_index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, round_index])
    return np.sort(rng.choice(pool, size=size, replace=False))


def _query_failed(record) -> bool:
    return record.predicted_label is None or record.outcome in (
        "degraded_surrogate",
        "abstained",
    )


class BatchWorkload:
    """A closed query set run by an MQO strategy over a batched scheduler.

    Every query arrives at time 0; its simulated latency is the end of the
    scheduler wave (boosting round) that answered it, since a round's
    answers and pseudo-labels publish at the round barrier.
    """

    name: str
    dataset: str
    scale: float | None
    method: str
    queries_per_round: int
    #: Simulated service time of one LLM call: a base plus a per-token share,
    #: so simulated times vary continuously with prompt length.
    seconds_per_call = 1.0
    seconds_per_1k_tokens = 1.0

    def setup(self) -> None:
        # The split's own query sample is unused: each round draws its own.
        self.exp = load_setup(self.dataset, num_queries=1, scale=self.scale)
        self.pool = _unlabeled(self.exp)

    def inputs(self, seed: int, round_index: int) -> np.ndarray:
        return _sample(self.pool, self.queries_per_round, seed, round_index)

    def _engine(self):
        clock = SimulatedClock()
        llm = LatencyLLM(
            self.exp.make_llm(MODEL),
            clock,
            seconds_per_call=self.seconds_per_call,
            seconds_per_1k_tokens=self.seconds_per_1k_tokens,
        )
        scheduler = QueryScheduler(max_batch_size=BATCH_SIZE, max_concurrency=VIRTUAL_WORKERS)
        ledger = BudgetLedger()
        engine = self.exp.make_engine(
            self.method, model=MODEL, llm=llm, clock=clock, scheduler=scheduler, ledger=ledger
        )
        return engine, scheduler, ledger

    def execute(self, engine, queries):
        """Run the strategy: ``(BoostingResult, pruning plan or None)``."""
        raise NotImplementedError

    def run(self, queries: np.ndarray):
        engine, scheduler, ledger = self._engine()
        outcome, plan = self.execute(engine, queries)
        return queries, outcome, plan, scheduler.report, ledger

    def reduce(self, produced) -> Round:
        queries, outcome, plan, report, ledger = produced
        records = outcome.run.records
        labels = self.exp.graph.labels
        wave_ends = np.cumsum([w.overlapped_seconds for w in report.waves])
        usd = sum(cost_usd(MODEL, r.prompt_tokens, r.completion_tokens) for r in records)
        usd -= cache_discount_usd(MODEL, ledger.shared_tokens)
        problems = checks.batch_round(queries, outcome, report, ledger, labels)
        problems += self.check(queries, outcome, plan)
        return Round(
            settled=len(records),
            failed=sum(_query_failed(r) for r in records),
            correct=sum(r.predicted_label == labels[r.node] for r in records),
            paid_tokens=ledger.paid_tokens,
            usd=usd,
            sim_makespan_s=report.overlapped_seconds,
            latencies=[
                float(wave_ends[r.round_index]) for r in records if not _query_failed(r)
            ],
            digest=_digest(
                [_record_rows(records), outcome.rounds, ledger.spent, ledger.shared_tokens]
            ),
            problems=problems,
        )

    def check(self, queries, outcome, plan) -> list[str]:
        return []


class BoostSnsProducts(BatchWorkload):
    """Algorithm 2 with SNS selection: the run phase is the 5-hop BFS."""

    name = "boost-sns-products"
    dataset = "ogbn-products"
    # A third of the default 0.006: the 5-hop ball still covers the whole
    # replica, but a query costs 0.07 s of BFS instead of 0.25 s, so one
    # run settles 150-200 queries and its token and accuracy figures stop
    # swinging with the seed.
    scale = 0.002
    method = "sns"
    queries_per_round = 25

    def execute(self, engine, queries):
        return QueryBoostingStrategy().execute(engine, queries), None

    def check(self, queries, outcome, plan) -> list[str]:
        return checks.sns_round_zero(self.exp, queries, outcome)


class JointOneHopArxiv(BatchWorkload):
    """Prune (tau=0.2) then boost with 1-hop selection; set-up fits the scorer."""

    name = "joint-1hop-arxiv"
    dataset = "ogbn-arxiv"
    # Half the default 0.08: 6.8k nodes, 3.1k of them outside the labeled
    # set, so a 2,000-query round is a sample of the population and the
    # set-up (scorer fit included) stays near 20 s.
    scale = 0.04
    method = "1-hop"
    queries_per_round = 2000
    tau = 0.2

    def setup(self) -> None:
        super().setup()
        self.scorer = fit_scorer(self.exp, model=MODEL)

    def execute(self, engine, queries):
        joint = JointStrategy(TokenPruningStrategy(self.scorer), QueryBoostingStrategy())
        outcome = joint.execute(engine, queries, tau=self.tau)
        return outcome.boosting, outcome.plan

    def check(self, queries, outcome, plan) -> list[str]:
        return checks.joint_pruning(self.exp, self.scorer, queries, outcome, plan, self.tau)


class ServeMqoCora(BatchWorkload):
    """Open-loop multi-tenant serving with every MQO rung switched on."""

    name = "serve-mqo-cora"
    dataset = "cora"
    scale = None
    method = "1-hop"
    # 1.4 requests per simulated second: about a tenth of the answers take
    # the compressed or pruned rung and none is rejected.  At 2 per second
    # the layer saturates (over 70% pruned) and its latency swings with
    # the seed.
    requests_per_round = 1000
    arrival_window = 700.0
    seconds_per_call = 0.5
    seconds_per_1k_tokens = 0.0
    tenants = (TenantSpec("alpha", weight=2), TenantSpec("beta"), TenantSpec("gamma"))
    policy = AdmissionPolicy(compress_watermark=2, degrade_watermark=4, wave_quota=8)
    compress_ratio = 0.5

    def inputs(self, seed: int, round_index: int):
        return synthetic_stream(
            self.tenants,
            self.pool,
            self.requests_per_round,
            arrival_window=self.arrival_window,
            seed=seed * 1000 + round_index,
        )

    def run(self, stream):
        clock = SimulatedClock()
        instr = Instrumentation(
            run_id="serve",
            clock=clock,
            labels={"dataset": self.dataset, "method": self.method,
                    "strategy": "serve", "model": MODEL},
        )
        llm = LatencyLLM(
            self.exp.make_llm(MODEL),
            clock,
            seconds_per_call=self.seconds_per_call,
            seconds_per_1k_tokens=self.seconds_per_1k_tokens,
        )
        scheduler = QueryScheduler(
            max_batch_size=BATCH_SIZE, max_concurrency=VIRTUAL_WORKERS, prefix_sharing=True
        )
        engine = self.exp.make_engine(
            self.method,
            model=MODEL,
            llm=llm,
            clock=clock,
            scheduler=scheduler,
            ladder=DegradationLadder(),
            observer=instr,
            compressor=PromptCompressor(target_ratio=self.compress_ratio),
            shared_first=True,
        )
        layer = ServingLayer(engine, self.tenants, policy=self.policy, price_model=MODEL)
        return stream, layer.replay(stream), layer.book

    def reduce(self, produced) -> Round:
        stream, report, book = produced
        labels = self.exp.graph.labels
        outcomes = report.outcomes
        answered = [o for o in outcomes if o.answered]
        ledgers = [book.ledger(t.name) for t in self.tenants]
        return Round(
            settled=len(outcomes),
            failed=len(outcomes) - len(answered),
            correct=sum(o.record.predicted_label == labels[o.request.node] for o in answered),
            paid_tokens=sum(ledger.paid_tokens for ledger in ledgers),
            usd=sum(ledger.paid_usd for ledger in ledgers),
            sim_makespan_s=(
                max(o.completed_at for o in outcomes)
                - min(o.dispatched_at for o in outcomes if o.dispatched_at is not None)
            ),
            # Served latency only: a rejection is a failure, never a fast answer.
            latencies=[o.completed_at - o.request.arrival for o in answered],
            digest=_digest(
                [
                    [[o.request.tenant, o.request.node, o.status, o.tier, o.completed_at,
                      o.shared_prompt_tokens] for o in outcomes],
                    _record_rows(o.record for o in outcomes if o.record is not None),
                    [[ledger.spent, ledger.shared_tokens] for ledger in ledgers],
                ]
            ),
            problems=checks.serve_round(
                stream, report, book, self.tenants, labels, MODEL
            ),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (BoostSnsProducts, JointOneHopArxiv, ServeMqoCora)
}
