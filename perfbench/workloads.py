"""The benchmark's three workloads, driven through the public API of ``repro``.

``crowd-loop`` runs the paper's crowdsourcing loop (TDH inference plus EAI
task assignment) through :meth:`CrowdSimulator.run`; no serving code runs.
``serve-read-heavy`` and ``serve-ingest`` drive a journaled
:class:`TruthService` in-process on its own event loop: the service is an
asyncio library with no network front-end, so the load generator shares the
loop thread and the service's fit thread is the only other thread.

Every workload reports the same end-to-end metrics (:data:`END_TO_END`);
``WORKLOADS.md`` says what each one means on each workload and why the
workloads exist. Inputs come from the seed alone.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import serving
from repro.assignment.eai import EAIAssigner
from repro.crowd.simulator import CrowdSimulator
from repro.crowd.workers import make_worker_pool
from repro.data.model import Answer, Record, TruthDiscoveryDataset
from repro.datasets.geography import make_geography, sample_truths
# The serving benchmarks' sparse substrate draws claims with these helpers;
# the benchmark reuses them so its substrate has the same claim mix.
from repro.datasets.synthetic import _claim_value, _wrong_pool, make_birthplaces
from repro.eval.metrics import evaluate
from repro.inference import TDHModel
from repro.serving import Overloaded, ServiceClosed, TruthService, WriteAheadJournal

from .loadgen import MAX_LATE_P99_S, OpenLoop, arrivals, chunks, summarize, windows
from .tracing import Instrumentation, Tracer, layer_metrics

#: End-to-end metric -> unit. Every workload reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "writes_per_s": "1/s",
    "rounds_per_s": "1/s",
    "write_visible_p50_ms": "ms",
    "write_visible_tail_ms": "ms",
    "read_p50_us": "us",
    "read_tail_us": "us",
    "recover_s": "s",
    "accuracy": "ratio",
    "truth_agreement": "ratio",
}

#: Per-layer metric -> unit, from the traced run.
PER_LAYER = {
    "service.read_call_us": "us",
    "service.read_wait_us": "us",
    "service.enqueue_wait_ms": "ms",
    "worker.queue_wait_ms": "ms",
    "worker.batch_writes": "count",
    "worker.fit_wall_ms": "ms",
    "worker.fit_cpu_ms": "ms",
    "worker.fit_wall_over_cpu": "ratio",
    "journal.append_batch_ms": "ms",
    "journal.checkpoint_ms": "ms",
    "journal.fsyncs": "count",
    "journal.bytes_per_write": "B/write",
    "snapshots.publish_us": "us",
    "recovery.replay_s": "s",
    "recovery.restart_fit_s": "s",
    "model.apply_us": "us",
    "columnar.extend_ms": "ms",
    "columnar.frontier_plan_ms": "ms",
    "columnar.frontier_objects": "count",
    "columnar.incremental_frac": "ratio",
    "tdh.fit_ms": "ms",
    "tdh.em_iterations": "count",
    "eai.assign_ms": "ms",
    "crowd.answer_us": "us",
    "eval.evaluate_ms": "ms",
    "generator.late_p99_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Reads at rest are grouped in this many for their tail: a p99 per group
#: (ten samples beyond it), then the median group, so a host hiccup during
#: one group of microsecond calls does not set the tail.
READ_GROUP = 1000

#: The truth-agreement bar ``benchmarks/test_serving.py`` holds the service to.
MIN_AGREEMENT = 0.999
FSYNC = "checkpoint"

#: crowd-loop: simulated workers and the tasks each gets per round.
CROWD_WORKERS = 10
TASKS_PER_WORKER = 5

#: Serve substrate: claims per object; answers come from a pool of this many
#: crowd workers.
CLAIMS_PER_OBJECT = 5
ANSWER_WORKERS = 40
#: serve-read-heavy: the share of reads that are multi-object, and their size.
MULTI_READ_SHARE = 0.05
MULTI_READ_SIZE = 32
#: serve-ingest: every this-many-th slot-growing claim names a brand-new
#: object; the load runs in this many waves, each followed by reads at rest.
NEW_OBJECT_EVERY = 5
INGEST_WAVES = 5

#: Serve latency tails are the median of per-window tails over this many
#: equal windows of the run; read-heavy writes (~10/s) use fewer, so each
#: window keeps at least ten samples beyond its tail.
TAIL_WINDOWS = 4
READ_HEAVY_WRITE_WINDOWS = 2
#: Tail percentile per (workload, operation), fixed so every run reports the
#: same one; each leaves at least ten samples beyond it in every group.
#: About one serve-ingest read in a hundred at rest meets a garbage-collector
#: pass, so their p99 sits on that edge and doubled between runs; p95 is the
#: highest listed percentile clear of it.
TAIL_Q = {
    ("crowd-loop", "write"): 95.0,
    ("crowd-loop", "read"): 99.0,
    ("serve-read-heavy", "write"): 90.0,
    ("serve-read-heavy", "read"): 99.0,
    ("serve-ingest", "write"): 99.0,
    ("serve-ingest", "read"): 95.0,
}


def _model() -> TDHModel:
    return TDHModel(use_columnar=True, incremental=True)


@dataclass(frozen=True)
class CrowdConfig:
    """The sizes of a crowd-loop run; the tests shrink them."""

    objects: int = 5000
    #: Rounds per repetition; a run repeats the loop until its time is up.
    rounds: int = 6
    #: Point reads of the final result per repetition.
    reads: int = 5000


@dataclass(frozen=True)
class ServeConfig:
    """The sizes and rates of a serve run; the tests shrink them."""

    objects: int = 5000
    sources: int = 15000
    max_pending: int = 256
    batch_max: int = 64
    #: Service start-ups timed per run; the last one serves the run.
    setup_reps: int = 5
    #: Recoveries of the crashed journal timed per run.
    recover_reps: int = 7
    #: serve-read-heavy: open-loop reads and crowd answers per second.
    read_rate: float = 1000.0
    write_rate: float = 10.0
    #: serve-ingest: one slot-growing claim per this many answers; after
    #: each wave the drained service is probed with an equal share of
    #: ``rest_reads`` closed-loop reads.
    answers_per_claim: int = 50
    rest_reads: int = 40000


@dataclass
class Outcome:
    """One measured pass of a workload."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    details: Dict[str, object] = field(default_factory=dict)
    #: Figures the traced pass turns into per-layer metrics.
    layer_inputs: Dict[str, float] = field(default_factory=dict)
    #: The figure tracing overhead is judged on, and whether higher is better.
    primary: Tuple[str, bool] = ("rounds_per_s", True)
    #: What a deterministic workload must reproduce exactly from its seed.
    fingerprint: Optional[object] = None


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _set_phase(tracer: Optional[Tracer], phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def _agreement(final, cold) -> float:
    return float(np.mean([final[o] == t for o, t in cold.items()]))


# ----------------------------------------------------------------------
# crowd-loop
# ----------------------------------------------------------------------
def crowd_loop(
    seed: int, seconds: float, tracer: Optional[Tracer] = None, cfg: CrowdConfig = CrowdConfig()
) -> Outcome:
    """The paper's loop, repeated from the same inputs until time is up.

    Each repetition times its set-up (the simulator's own copy, encode and
    first fit, as ``run(0)``), runs ``cfg.rounds`` rounds warm-started from
    it, then point-reads the final result and times a restart from the
    collected claims (rebuild + cold fit), whose truths are the agreement
    reference. Repetitions must agree exactly.
    """
    # The corpus is the library's default BirthPlaces-like one; the seed
    # drives the crowd: the worker panel, their answers and the read probe.
    base = make_birthplaces(size=cfg.objects)
    panel = make_worker_pool(CROWD_WORKERS, seed=seed)
    rng = np.random.default_rng(seed)
    probe = [base.objects[int(i)] for i in rng.integers(len(base.objects), size=cfg.reads)]
    answers_per_round = CROWD_WORKERS * TASKS_PER_WORKER

    setups: List[float] = []
    walls: List[float] = []
    restarts: List[float] = []
    visible: List[List[float]] = []
    reads: List[float] = []
    agreements: List[float] = []
    logs = []
    series = []
    attempted = 0
    read_failed = 0
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        _set_phase(tracer, "setup")
        # The previous repetition is cyclic garbage; a collector pass that
        # walked it inside a timed call would charge that call its size.
        gc.collect()
        t0 = time.perf_counter()
        sim = CrowdSimulator(base, _model(), EAIAssigner(use_columnar=True), panel, seed=seed)
        sim.run(0)
        setups.append(time.perf_counter() - t0)

        _set_phase(tracer, "measure")
        t0 = time.perf_counter()
        # Its round 0 warm-starts from the set-up fit with nothing new to fit.
        history = sim.run(cfg.rounds, tasks_per_worker=TASKS_PER_WORKER)
        walls.append(time.perf_counter() - t0)
        attempted += sum(r.answers_collected for r in history.records)
        # A round's answers become visible when its fit returns; collecting
        # them takes well under 1% of that, so each answer counts the fit.
        visible.append(
            [r.inference_seconds for r in history.records[1:] for _ in range(r.answers_collected)]
        )
        logs.append(sim.assignment_log)
        series.append(history.series("accuracy"))

        _set_phase(tracer, "check")
        # The final fit is not returned by run(); the simulator keeps it to
        # warm-start the next round.
        result = sim._previous_result
        truths = result.truths()
        for obj in probe:
            t0 = time.perf_counter()
            try:
                truths[obj]
                result.confidence(obj)
            except Exception:
                read_failed += 1
                continue
            reads.append(time.perf_counter() - t0)
        attempted += len(probe)
        final = sim.dataset
        records = [(r.object, r.source, r.value) for r in final.iter_records()]
        answers = [(a.object, a.worker, a.value) for a in final.iter_answers()]
        t0 = time.perf_counter()
        restarted = TruthDiscoveryDataset.from_trusted_claims(
            final.hierarchy, records, answers, gold=final.gold
        )
        cold = _model().fit(restarted).truths()
        restarts.append(time.perf_counter() - t0)
        agreements.append(_agreement(truths, cold))

    write_lat = summarize(visible, 1e3, TAIL_Q["crowd-loop", "write"])
    read_lat = summarize(chunks(reads, READ_GROUP), 1e6, TAIL_Q["crowd-loop", "read"])
    rounds = np.array([cfg.rounds / w for w in walls])
    agreement = float(np.median(agreements))
    checks = {
        "repetitions_identical": all(log == logs[0] for log in logs)
        and all(s == series[0] for s in series),
        "truth_agreement": agreement >= MIN_AGREEMENT,
    }
    metrics = {
        "setup_s": float(np.median(setups)),
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_frac": 1.0 - read_failed / attempted,
        "writes_per_s": float(np.median(rounds * answers_per_round)),
        "rounds_per_s": float(np.median(rounds)),
        "write_visible_p50_ms": write_lat["p50"],
        "write_visible_tail_ms": write_lat["tail"],
        "read_p50_us": read_lat["p50"],
        "read_tail_us": read_lat["tail"],
        "recover_s": float(np.median(restarts)),
        "accuracy": float(series[0][-1]),
        "truth_agreement": agreement,
    }
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=read_failed,
        checks=checks,
        details={
            "repetitions": len(walls),
            "rounds_per_repetition": cfg.rounds,
            "answers_per_round": answers_per_round,
            "write_visible": write_lat,
            "read": read_lat,
        },
        primary=("rounds_per_s", True),
        fingerprint=(series[0], agreement),
    )


# ----------------------------------------------------------------------
# serve workloads: inputs
# ----------------------------------------------------------------------
def sparse_substrate(cfg: ServeConfig, seed: int) -> TruthDiscoveryDataset:
    """Uniform sparse claims (:data:`CLAIMS_PER_OBJECT` per object from a
    ``cfg.sources`` pool), the substrate of the serving benchmarks: a
    micro-batch's dirty frontier stays a small share of the dataset."""
    rng = np.random.default_rng(seed)
    hierarchy = make_geography(height=5, branching=(4, 6, 5, 4, 2), rng=rng, max_nodes=3000)
    truths = sample_truths(hierarchy, cfg.objects, rng, min_depth=2)
    objects = [f"entity_{i}" for i in range(cfg.objects)]
    pool = _wrong_pool(hierarchy, rng)
    records: List[Record] = []
    for obj, truth in zip(objects, truths):
        misinformation = pool[int(rng.integers(len(pool)))]
        for idx in rng.choice(cfg.sources, size=CLAIMS_PER_OBJECT, replace=False):
            value = _claim_value(truth, hierarchy, (0.7, 0.2, 0.1), misinformation, pool, rng)
            records.append(Record(obj, f"src_{idx}", value))
    return TruthDiscoveryDataset(
        hierarchy, records, gold=dict(zip(objects, truths)), name="sparse"
    )


def write_stream(
    base: TruthDiscoveryDataset, cfg: ServeConfig, seed: int, claims: bool
) -> Iterator[Tuple[str, str, str, str]]:
    """``(kind, object, claimant, value)`` writes, every one an append.

    Answers come from a pool of :data:`ANSWER_WORKERS` workers, each
    ``(object, worker)`` pair used once, naming the gold value 70% of the
    time and a uniform candidate otherwise. With ``claims``, every
    ``cfg.answers_per_claim``-th write is a record from a fresh source that
    grows the slot layout: a candidate value new to an existing object, or
    (every :data:`NEW_OBJECT_EVERY`-th claim) a brand-new object.
    """
    rng = np.random.default_rng(seed + 1)
    objects = base.objects
    nodes = list(base.hierarchy.non_root_nodes())
    added: Dict[str, set] = {}
    claim_no = 0
    for n, pair in enumerate(rng.permutation(len(objects) * ANSWER_WORKERS)):
        if claims and n % cfg.answers_per_claim == cfg.answers_per_claim - 1:
            source = f"ingest_src_{claim_no}"
            if claim_no % NEW_OBJECT_EVERY == NEW_OBJECT_EVERY - 1:
                yield ("claim", f"ingest_obj_{claim_no}", source, nodes[int(rng.integers(len(nodes)))])
            else:
                obj = objects[int(rng.integers(len(objects)))]
                taken = added.setdefault(obj, set(base.candidates(obj)))
                value = nodes[int(rng.integers(len(nodes)))]
                while value in taken:
                    value = nodes[int(rng.integers(len(nodes)))]
                taken.add(value)
                yield ("claim", obj, source, value)
            claim_no += 1
        obj = objects[int(pair) // ANSWER_WORKERS]
        worker = f"crowd_{int(pair) % ANSWER_WORKERS}"
        candidates = base.candidates(obj)
        truth = base.gold[obj]
        if truth in candidates and rng.random() < 0.7:
            value = truth
        else:
            value = candidates[int(rng.integers(len(candidates)))]
        yield ("answer", obj, worker, value)


# ----------------------------------------------------------------------
# serve workloads: the run
# ----------------------------------------------------------------------
class _Writes:
    """Issued writes, their tickets and their arrival-timed visibility."""

    def __init__(self, t_start: float) -> None:
        self.t_start = t_start
        self.issued: List[Tuple[str, str, str, str]] = []
        self.refused = 0
        self.rejected = 0
        #: (arrival offset in the run, seconds until the ticket resolved)
        self.visible: List[Tuple[float, float]] = []

    async def issue(self, service: TruthService, write, due: float) -> None:
        kind, obj, claimant, value = write
        append = service.append_claim if kind == "claim" else service.append_answer
        try:
            ticket = await append(obj, claimant, value)
        except (Overloaded, ServiceClosed):
            self.refused += 1
            return
        self.issued.append(write)

        def resolved(fut) -> None:
            if fut.cancelled() or fut.exception() is not None:
                self.rejected += 1
            else:
                now = time.perf_counter()
                self.visible.append((due - self.t_start, now - due))

        ticket.add_done_callback(resolved)

    @property
    def acked(self) -> int:
        return len(self.visible)

    @property
    def unresolved(self) -> int:
        return len(self.issued) - self.acked - self.rejected

    @property
    def failed(self) -> int:
        """Refused, rejected, or never resolved."""
        return self.refused + len(self.issued) - self.acked


async def _start_services(
    base: TruthDiscoveryDataset, cfg: ServeConfig, workdir: Path, tag: str
) -> Tuple[TruthService, Path, List[float]]:
    """Time ``cfg.setup_reps`` fresh journaled start-ups; keep the last."""
    setups: List[float] = []
    journals = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=workdir))
    for rep in range(cfg.setup_reps):
        path = journals / f"{rep}.wal"
        service = TruthService(
            base.copy(),
            _model(),
            max_pending=cfg.max_pending,
            batch_max=cfg.batch_max,
            journal=WriteAheadJournal(path, fsync=FSYNC),
        )
        gc.collect()  # as in crowd_loop: the last start-up is garbage now
        t0 = time.perf_counter()
        await service.start()
        setups.append(time.perf_counter() - t0)
        if rep < cfg.setup_reps - 1:
            await service.stop()
    return service, path, setups


async def _recover_repeatedly(path: Path, cfg: ServeConfig, acked: int, final_epoch: int):
    """Recover the crashed journal ``cfg.recover_reps`` times, crashing each
    recovered service again, and check every recovery; returns the times."""
    times: List[float] = []
    ok = {"recovered_all_acked": True, "recovery_untruncated": True, "recovery_serves_resume_epoch": True}
    expected_epoch = final_epoch + 1
    report = None
    for _ in range(cfg.recover_reps):
        gc.collect()  # as in crowd_loop: the last recovery is garbage now
        t0 = time.perf_counter()
        recovered, report = await serving.recover(
            path, _model(), max_pending=cfg.max_pending, batch_max=cfg.batch_max
        )
        times.append(time.perf_counter() - t0)
        ok["recovered_all_acked"] &= report.writes_replayed == acked
        ok["recovery_untruncated"] &= report.truncated_records == 0
        # Each recovery publishes (and checkpoints) one epoch of its own.
        ok["recovery_serves_resume_epoch"] &= (
            recovered.latest.epoch == report.resume_epoch == expected_epoch
        )
        expected_epoch += 1
        recovered.crash()
    return times, ok, report


async def _serve(
    kind: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    cfg: ServeConfig,
    workdir: Path,
) -> Outcome:
    read_heavy = kind == "serve-read-heavy"
    base = sparse_substrate(cfg, seed)
    stream = write_stream(base, cfg, seed, claims=not read_heavy)
    objects = base.objects
    rng = np.random.default_rng(seed + 2)
    if read_heavy:
        read_at = arrivals(cfg.read_rate, seconds, rng)
        write_at = arrivals(cfg.write_rate, seconds, rng)
    else:
        read_at = np.zeros(cfg.rest_reads)
    read_obj = rng.integers(len(objects), size=len(read_at))
    multi = rng.random(len(read_at)) < (MULTI_READ_SHARE if read_heavy else 0.0)
    multi_objs = rng.integers(len(objects), size=(int(multi.sum()), MULTI_READ_SIZE))
    multi_slot = np.cumsum(multi) - 1

    _set_phase(tracer, "setup")
    service, path, setups = await _start_services(base, cfg, workdir, kind)

    point_lat: List[Tuple[float, float]] = []
    multi_lat: List[float] = []
    read_wait: List[float] = []
    read_failed = 0

    def read(i: int, due: float) -> None:
        nonlocal read_failed
        t_call = time.perf_counter()
        try:
            if multi[i]:
                service.get_truths([objects[j] for j in multi_objs[multi_slot[i]]])
            else:
                service.get_truth(objects[read_obj[i]])
        except Exception:
            read_failed += 1
            return
        done = time.perf_counter()
        if multi[i]:
            multi_lat.append(done - due)
        else:
            point_lat.append((float(read_at[i]), done - due))
        read_wait.append(t_call - due)

    reader = OpenLoop()
    writer = OpenLoop()
    journal_before = service.stats()["journal"]
    epoch_before = service.latest.epoch

    _set_phase(tracer, "measure")
    t_start = time.perf_counter()
    writes = _Writes(t_start)
    if read_heavy:
        await asyncio.gather(
            reader.run(t_start, read_at, read),
            writer.run(t_start, write_at, lambda i, due: writes.issue(service, next(stream), due)),
        )
        final = await asyncio.wait_for(service.drain(), timeout=120)
        elapsed = time.perf_counter() - t_start
    else:
        # Closed loop: the next write is issued once the previous one is
        # queued, so ``max_pending`` backpressure paces the loader. The load
        # comes in waves; after each, the service drains and a closed-loop
        # probe reads it at rest, so no read contends with a fit and the
        # probes sample the whole run (untimed: they are not ingest work).
        per_wave = len(read_at) // INGEST_WAVES
        probing = 0.0
        for wave in range(INGEST_WAVES):
            wave_end = t_start + probing + seconds * (wave + 1) / INGEST_WAVES
            while time.perf_counter() < wave_end:
                await writes.issue(service, next(stream), time.perf_counter())
            final = await asyncio.wait_for(service.drain(), timeout=120)
            t_probe = time.perf_counter()
            for i in range(wave * per_wave, (wave + 1) * per_wave):
                read(i, time.perf_counter())
            probing += time.perf_counter() - t_probe
        reader.issued = per_wave * INGEST_WAVES
        elapsed = time.perf_counter() - t_start - probing
    journal_after = service.stats()["journal"]
    degradations = service.metrics.warm_start_degradations

    _set_phase(tracer, "check")
    mirror = base.copy()
    for write_kind, obj, claimant, value in writes.issued:
        if write_kind == "claim":
            mirror.add_record(Record(obj, claimant, value))
        else:
            mirror.add_answer(Answer(obj, claimant, value))
    cold = _model().fit(mirror).truths()
    drained = final.truths
    agreement = _agreement(drained, cold)
    accuracy = evaluate(mirror, drained).accuracy

    _set_phase(tracer, "recover")
    service.crash()
    recover_times, recovery_ok, report = await _recover_repeatedly(
        path, cfg, writes.acked, final.epoch
    )
    _set_phase(tracer, "check")

    attempted = writes.refused + len(writes.issued) + reader.issued
    failed = writes.failed + read_failed
    late_p99 = max(reader.late_p99_s(), writer.late_p99_s())
    checks = {
        "truth_agreement": agreement >= MIN_AGREEMENT,
        # A ticket is an asyncio future, so it resolves at most once; what
        # can go wrong is that one never resolves.
        "tickets_all_resolved": writes.unresolved == 0,
        **recovery_ok,
    }
    if read_heavy:
        checks["generator_kept_schedule"] = late_p99 <= MAX_LATE_P99_S
    else:
        checks["no_warm_start_degradations"] = degradations == 0
    offsets, visible = zip(*writes.visible) if writes.visible else ((), ())
    if read_heavy:
        write_groups = windows(offsets, visible, seconds, READ_HEAVY_WRITE_WINDOWS)
        read_offsets, read_lat = zip(*point_lat) if point_lat else ((), ())
        read_groups = windows(read_offsets, read_lat, seconds, TAIL_WINDOWS)
    else:
        write_groups = windows(offsets, visible, seconds, TAIL_WINDOWS)
        read_groups = chunks([lat for _, lat in point_lat], READ_GROUP)
    write_lat = summarize(write_groups, 1e3, TAIL_Q[kind, "write"])
    read_lat = summarize(read_groups, 1e6, TAIL_Q[kind, "read"])
    metrics = {
        "setup_s": float(np.median(setups)),
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_frac": 1.0 - failed / max(attempted, 1),
        "writes_per_s": writes.acked / elapsed,
        "rounds_per_s": (final.epoch - epoch_before) / elapsed,
        "write_visible_p50_ms": write_lat["p50"],
        "write_visible_tail_ms": write_lat["tail"],
        "read_p50_us": read_lat["p50"],
        "read_tail_us": read_lat["tail"],
        "recover_s": float(np.median(recover_times)),
        "accuracy": accuracy,
        "truth_agreement": agreement,
    }
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        checks=checks,
        details={
            "writes_issued": len(writes.issued),
            "writes_acked": writes.acked,
            "write_visible": write_lat,
            "read": read_lat,
            "multi_read_us": {
                "count": len(multi_lat),
                "p50": float(np.median(multi_lat)) * 1e6 if multi_lat else 0.0,
            },
            "generator_late_p99_ms": late_p99 * 1e3,
            "warm_start_degradations": degradations,
            "epochs": final.epoch - epoch_before,
            "setup_s": setups,
            "recover_s": recover_times,
            "recovery": report.as_dict(),
        },
        layer_inputs={
            "service.read_wait_us": float(np.mean(read_wait)) * 1e6 if read_heavy else 0.0,
            "journal.fsyncs": journal_after["fsyncs"] - journal_before["fsyncs"],
            "journal.bytes_per_write": (
                journal_after["bytes_appended"] - journal_before["bytes_appended"]
            ) / max(writes.acked, 1),
            "generator.late_p99_ms": late_p99 * 1e3,
        },
        primary=("read_p50_us", False) if read_heavy else ("writes_per_s", True),
    )


def offered(workload: str) -> Dict[str, object]:
    """The load each workload offers, for the result's provenance block."""
    serve_cfg, crowd_cfg = ServeConfig(), CrowdConfig()
    return {
        "crowd-loop": {
            "rounds_per_repetition": crowd_cfg.rounds,
            "answers_per_round": CROWD_WORKERS * TASKS_PER_WORKER,
        },
        "serve-read-heavy": {
            "read_per_s": serve_cfg.read_rate,
            "multi_read_share": MULTI_READ_SHARE,
            "write_per_s": serve_cfg.write_rate,
        },
        "serve-ingest": {
            "write_per_s": "closed loop",
            "max_pending": serve_cfg.max_pending,
            "batch_max": serve_cfg.batch_max,
            "waves": INGEST_WAVES,
            "reads_at_rest": serve_cfg.rest_reads,
        },
    }[workload]


WORKLOADS = ("crowd-loop", "serve-ingest", "serve-read-heavy")


def _drive(workload: str, seed: int, seconds: float, workdir: Path, tracer, cfg) -> Outcome:
    if workload == "crowd-loop":
        return crowd_loop(seed, seconds, tracer, cfg or CrowdConfig())
    return asyncio.run(_serve(workload, seed, seconds, tracer, cfg or ServeConfig(), workdir))


#: The workloads ``BENCHMARK.json`` holds to bounds. serve-read-heavy runs
#: with the same command but is not among them: see ``WORKLOADS.md``.
GATED = ("crowd-loop", "serve-ingest")


@dataclass
class RunResult:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    details: Dict[str, object]
    tracer: Optional[Tracer] = None


def run(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path, cfg=None
) -> RunResult:
    """One benchmark run: end-to-end metrics, or with ``trace`` per-layer ones.

    A traced run measures half its time untraced and half traced, from the
    same seed, and reports the per-layer metrics of the traced half plus the
    difference between the two halves as ``trace.overhead_pct``.
    """
    if not trace:
        outcome = _drive(workload, seed, seconds, workdir, None, cfg)
        metrics = {name: (outcome.metrics[name], unit) for name, unit in END_TO_END.items()}
        return RunResult(metrics, outcome.attempted, outcome.failed, outcome.checks, outcome.details)

    plain = _drive(workload, seed, seconds / 2, workdir, None, cfg)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        traced = _drive(workload, seed, seconds / 2, workdir, tracer, cfg)
    finally:
        instrumentation.restore()
    layers = layer_metrics(tracer)
    layers.update(traced.layer_inputs)
    primary, higher_is_better = traced.primary
    before, after = plain.metrics[primary], traced.metrics[primary]
    cost_ratio = before / after if higher_is_better else after / before
    layers["trace.overhead_pct"] = 100.0 * (cost_ratio - 1.0)
    metrics = {name: (layers.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
    checks = {f"untraced.{k}": v for k, v in plain.checks.items()}
    checks.update({f"traced.{k}": v for k, v in traced.checks.items()})
    if plain.fingerprint is not None:
        checks["tracing_changes_no_result"] = plain.fingerprint == traced.fingerprint
    return RunResult(
        metrics,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        checks,
        {"untraced": plain.details, "traced": traced.details, "overhead_on": primary},
        tracer,
    )
