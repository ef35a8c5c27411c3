"""Measurement and checks for one workload: untraced passes for the
end-to-end metrics, or a traced run for the per-layer metrics."""

from __future__ import annotations

import bisect
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import networkx
import numpy as np
import requests

import emocause
from emocause.kb import read_kb
from stub import ENDPOINTS
from tracing import CallCounter, Tracer, patched, traced_providers
from workloads import (
    CFG,
    OFFLINE_SPECS,
    REMOTE_SPECS,
    STAGES,
    Inputs,
    PassResult,
    Providers,
    Workload,
    offline_providers,
    remote_providers,
    run_pass,
)

perf_counter = time.perf_counter
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

SETUP_RUNS = 9
# A run measures past --seconds until it has enough dialogue samples for the
# workload's tail percentile, but not past this.
MAX_MEASURE_S = 100.0
LAYERS = ("ingest", "model", "kb", "embedding", "extraction", "graph", "metrics", "pipeline")
# Median SpeedProbe sample on the baseline machine; fixes the scale of the
# reference speed that time metrics are reported at.
REFERENCE_PROBE_S = 0.0002
KB_VECTOR_TOLERANCE = 1e-12
WEIGHT_TOLERANCE = 1e-12

SETUP_CODE = """
import os, sys, time
def stolen():
    try:
        with open("/proc/stat", "rb") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0
s0 = stolen()
t0 = time.perf_counter()
import emocause
from emocause.kb import read_kb
from emocause.embedding import provider_from_spec
from emocause.extraction import extractor_from_spec
from emocause.graph import nli_from_spec
provider_from_spec(sys.argv[1]); extractor_from_spec(sys.argv[2]); nli_from_spec(sys.argv[3])
t1 = time.perf_counter()
print(repr(t1 - t0 - min(max(stolen() - s0, 0.0), t1 - t0)))
"""


@dataclass
class Checks:
    """Operations attempted and failed; every correctness mismatch is a failure."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def passed(self, count: int) -> None:
        """Operations that completed without error."""
        self.attempted += count

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "requests": requests.__version__,
        "emocause": emocause.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def samples_for_tail(percentile: float) -> int:
    """Fewest samples that leave ten beyond `percentile` (nearest rank)."""
    n = 10
    while n - math.ceil(percentile / 100 * n) < 10:
        n += 1
    return n


def tail(samples: list[float], percentile: float) -> tuple[float, str]:
    """The nearest-rank `percentile` of `samples`, and a note with the
    number of samples beyond it.

    The percentile is fixed per workload, not chosen from the sample count,
    so that runs with a few more or fewer samples report the same statistic;
    the measuring loop collects enough samples to leave ten beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(math.ceil(percentile / 100 * n), 1)
    return ordered[rank - 1], f"p{percentile:g} of {n} samples, {n - rank} beyond it"


def stolen_seconds() -> float:
    """CPU time the hypervisor has taken from this machine's virtual CPUs
    since boot: the `steal` column of /proc/stat, summed over CPUs. 0.0
    where the kernel does not report it."""
    try:
        with open("/proc/stat", "rb") as f:
            fields = f.readline().split()
        return int(fields[8]) / CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


class SpeedProbe:
    """Samples the machine while a run measures, so that time metrics can
    be reported as the time the program would take on a quiet machine of
    the baseline's speed.

    The shared 2-core virtual machine the baseline was taken on slows down
    in two ways, each for seconds to minutes at a time (figures in
    benchmarks/README.md, "Reference speed on a quiet machine"):

    * The hypervisor runs other guests on its CPUs. That time is "stolen":
      wall time counts it, thread CPU times do not. A pass's time grows
      with the stolen time almost one for one.
    * The CPU itself runs slower or faster, by up to 1.6 times. The thread
      times a fixed pure-Python loop in its own CPU time (GIL waits and
      stolen time do not count); the median sample over a pass tracks the
      pass time less stolen time nearly in proportion. The loop holds the
      GIL throughout, so it does not trade the GIL with the program.

    `effective(start, end)` takes the stolen time out of an interval and
    scales the rest by the probe's speed ratio. The benchmark runs one
    thread of work at a time (`jobs=1`, a closed loop), so time stolen
    from either CPU is time stolen from that thread.
    """

    PERIOD_S = 0.02
    # The speed factor of a shorter interval is taken over this much time
    # centred on it: about 50 samples, so that one dialogue's factor is not
    # the median of a handful.
    MIN_FACTOR_WINDOW_S = 1.0

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.stolen: list[tuple[float, float]] = [(perf_counter(), stolen_seconds())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe")

    @staticmethod
    def _work() -> int:
        x = 0
        for i in range(2000):
            x += i * i % 7
        return x

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            t0 = time.thread_time()
            self._work()
            self.samples.append((perf_counter(), time.thread_time() - t0))
            self.stolen.append((perf_counter(), stolen_seconds()))

    def factor(self, start: float, end: float, default: float = 1.0) -> float:
        """REFERENCE_PROBE_S / median probe time in [start, end] (`default`
        if no sample fell inside): multiply a CPU-bound time measured in
        that interval by it to get reference-speed time."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        return REFERENCE_PROBE_S / statistics.median(inside) if inside else default

    def _stolen_at(self, t: float) -> float:
        """Cumulative stolen seconds at `t`, interpolated between samples."""
        stolen = list(self.stolen)  # the probe thread appends meanwhile
        i = bisect.bisect_left([ts for ts, _ in stolen], t)
        if i == 0:
            return stolen[0][1]
        if i == len(stolen):
            return stolen[-1][1]
        (t0, s0), (t1, s1) = stolen[i - 1], stolen[i]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0) if t1 > t0 else s1

    def stolen_in(self, start: float, end: float) -> float:
        """Seconds stolen in [start, end], at most the interval's length."""
        return min(max(self._stolen_at(end) - self._stolen_at(start), 0.0), end - start)

    def effective(self, start: float, end: float, default_factor: float = 1.0) -> float:
        """Reference-speed time of the work done in [start, end]."""
        pad = max(self.MIN_FACTOR_WINDOW_S - (end - start), 0.0) / 2
        factor = self.factor(start - pad, end + pad, default_factor)
        return (end - start - self.stolen_in(start, end)) * factor

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.stolen.append((perf_counter(), stolen_seconds()))


def setup_seconds(src: Path, remote_env: dict | None) -> list[float]:
    """Seconds to import emocause and build the workload's providers from
    their specs, each in a fresh interpreter, less the time stolen from the
    machine's CPUs meanwhile (see SpeedProbe)."""
    specs = REMOTE_SPECS if remote_env is not None else OFFLINE_SPECS
    env = {**os.environ, "PYTHONPATH": str(src), **(remote_env or {})}
    argv = [sys.executable, "-c", SETUP_CODE, specs["embedder"], specs["extractor"], specs["nli"]]
    out = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def remote_env(stub) -> dict:
    return {
        "EMBED_ENDPOINT": stub.url("embed"),
        "LLM_ENDPOINT": stub.url("chat"),
        "NLI_ENDPOINT": stub.url("nli"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def expected_windows(turns: int) -> int:
    return math.ceil(max(turns - CFG.window_size, 0) / CFG.stride) + 1


def check_oracle(w: Workload, p: PassResult, checks: Checks) -> None:
    """Outputs agree with what the generator planted and with the scoring
    rules: every planted event is extracted, every edge respects precedence,
    the threshold and the convex weight, and the KB has one entry per window."""
    checks.record(
        p.kb_windows == w.dialogues * expected_windows(w.turns),
        f"KB has {p.kb_windows} windows, expected {w.dialogues * expected_windows(w.turns)}",
    )
    checks.record(p.kb_round_trip_exact, "KB read back from its file differs from the KB written")
    for did, o in p.outputs.items():
        found = {s.match_key() for s in o.sextuplets}
        missing = [g.id for g in o.gold.sextuplets if g.match_key() not in found]
        checks.record(not missing, f"{did}: planted events not extracted: {missing}")
        by_id = {s.id: s for s in o.sextuplets}
        bad = [
            (e.cause_id, e.effect_id)
            for e in o.graph.edges
            if not (
                e.delta_t == by_id[e.effect_id].t_start - by_id[e.cause_id].t_end
                and 0.0 <= e.delta_t <= CFG.effective_max_gap()
                and e.weight >= CFG.edge_threshold
                and abs(
                    e.weight
                    - (CFG.alpha * e.semantic_score + CFG.beta * e.temporal_score
                       + CFG.gamma * e.rationale_score)
                ) <= WEIGHT_TOLERANCE
            )
        ]
        checks.record(not bad, f"{did}: edges break the scoring rules: {bad[:5]}")


def check_same(p: PassResult, ref: PassResult, what: str, checks: Checks) -> None:
    """Every dialogue's sextuplets, graph and report bytes equal the reference's."""
    for did, o in ref.outputs.items():
        got = p.outputs.get(did)
        checks.record(
            got is not None and got.artifacts == o.artifacts,
            f"{did}: {what} differs from the reference artifacts",
        )


def check_remote_matches_offline(w: Workload, inputs: Inputs, remote: PassResult, out: Path,
                                 checks: Checks) -> None:
    """The remote run's artifacts equal an offline run's byte for byte; KB
    vectors agree within 1e-12 (the remote embedder re-normalizes)."""
    prov = offline_providers()
    offline = run_pass(w, inputs, prov, out)
    check_same(remote, offline, "remote run vs offline run", checks)
    for did, o in offline.outputs.items():
        a, b = read_kb(o.kb_path), read_kb(remote.outputs[did].kb_path)
        checks.record(
            a.windows == b.windows
            and a.vectors.shape == b.vectors.shape
            and float(np.max(np.abs(a.vectors - b.vectors), initial=0.0)) <= KB_VECTOR_TOLERANCE,
            f"{did}: remote KB vectors differ from offline by more than {KB_VECTOR_TOLERANCE}",
        )


def guarded_pass(w, inputs, prov, out, checks: Checks, **kw) -> PassResult | None:
    """One pass; a raised error counts as one failed operation."""
    try:
        return run_pass(w, inputs, prov, out, **kw)
    except Exception:  # the benchmark reports the failure and carries on
        traceback.print_exc()
        checks.record(False, f"{w.name}: pass raised")
        return None


# ---------------------------------------------------------------------------
# Untraced passes: end-to-end metrics
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    metrics: dict  # name -> (value, unit)
    notes: list[str]
    passes: int


def measure(w: Workload, inputs: Inputs, seconds: float, work: Path, checks: Checks,
            src: Path, stub=None) -> Measured:
    with SpeedProbe() as probe:
        return _measure(w, inputs, seconds, work, checks, src, stub, probe)


def _measure(w, inputs, seconds, work, checks, src, stub, probe: SpeedProbe) -> Measured:
    t_setup = perf_counter()
    setup = setup_seconds(src, remote_env(stub) if stub else None)
    setup_factor = probe.factor(t_setup, perf_counter())
    prov = remote_providers(stub) if stub else offline_providers()
    try:
        counting = CallCounter()
        timed = prov if stub else Providers(*counting.providers(prov.embedder, prov.extractor, prov.nli))
        passes: list[PassResult] = []
        requests_pp, kbytes_pp, intervals = [], [], []
        needed = samples_for_tail(w.tail_percentile)
        start = perf_counter()
        while (not passes or perf_counter() - start < seconds
               or (len(passes) * w.dialogues < needed and perf_counter() - start < MAX_MEASURE_S)):
            before = stub.snapshot() if stub else (counting.calls, counting.chars)
            t_pass = perf_counter()
            p = guarded_pass(w, inputs, timed, work / "jobs1", checks)
            if p is None:
                if perf_counter() - start >= seconds:
                    break
                continue
            if stub:
                delta = stub.snapshot() - before
                requests_pp.append(sum(delta[f"requests.{e}"] for e in ENDPOINTS))
                kbytes_pp.append((delta["bytes_in"] + delta["bytes_out"]) / 1000)
            else:
                requests_pp.append(counting.calls - before[0])
                kbytes_pp.append((counting.chars - before[1]) / 1000)
            if passes:
                check_same(p, passes[0], f"pass {len(passes)}", checks)
            else:
                check_oracle(w, p, checks)
            passes.append(p)
            intervals.append((t_pass, perf_counter()))
            checks.passed(len(p.outputs))
        if not passes:
            raise RuntimeError(f"{w.name}: every pass failed")
        rss = peak_rss_mb()

        # Untimed checks after the measurement.
        jobs2 = guarded_pass(w, inputs, prov, work / "jobs2", checks, jobs=2)
        if jobs2 is not None:
            check_same(jobs2, passes[0], "jobs=2 run vs jobs=1 run", checks)
        if stub:
            check_remote_matches_offline(w, inputs, passes[0], work / "offline", checks)
    finally:
        prov.close()

    # Times at reference speed on a quiet machine (SpeedProbe.effective). A
    # dialogue's own work is taken over its own interval, since the machine
    # can change within a pass; its share of corpus-wide work (if any) at
    # the pass's ratio of effective to raw time.
    pass_s = [probe.effective(a, b) for a, b in intervals]
    samples = []
    for p, (a, b), eff in zip(passes, intervals, pass_s):
        ratio = eff / (b - a)
        for did, (start, end) in p.spans.items():
            samples.append(probe.effective(start, end, default_factor=probe.factor(a, b))
                           + (p.dialogue_s[did] - (end - start)) * ratio)
    tail_s, tail_note = tail(samples, w.tail_percentile)
    first = passes[0]
    metrics = {
        "setup_s": (statistics.median(setup) * setup_factor, "s"),
        "utterances_per_s": (inputs.utterances / statistics.median(pass_s), "1/s"),
        "dialogue_s_p50": (statistics.median(samples), "s"),
        "dialogue_s_tail": (tail_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "success_ratio": (1.0 - checks.error_rate, "ratio"),
        "causal_chain_score": (first.chain_score, "score"),
        "span_f1_mean": (first.span_f1_mean, "score"),
        "provider_requests_per_dialogue": (statistics.median(requests_pp) / w.dialogues, "count"),
        "provider_kbytes_per_dialogue": (statistics.median(kbytes_pp) / w.dialogues, "kB"),
    }
    notes = [
        "raw pass seconds: " + " ".join(f"{p.seconds:.3f}" for p in passes),
        "seconds stolen per pass: " + " ".join(f"{probe.stolen_in(a, b):.3f}" for a, b in intervals),
        "reference-speed factors: " + " ".join(f"{probe.factor(a, b):.3f}" for a, b in intervals)
        + f"; set-up {setup_factor:.3f} (setup_s before scaling {statistics.median(setup):.4f})",
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"dialogue_s_tail: {tail_note}",
        f"error_rate: {checks.error_rate:g} ({checks.failed} of {checks.attempted} operations failed)",
        "provider counts: "
        + ("HTTP requests and body bytes at the stub" if stub else "calls into the provider objects "
           "and the characters passed to them"),
    ]
    return Measured(metrics, notes, len(passes))


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, first_span: int, p: PassResult, w: Workload,
                  transport: dict | None) -> dict:
    """Per-layer metrics of one traced pass. `_s` metrics are inclusive span
    time summed over the pass, except `<layer>.self_s` and
    `embedding.window_mean_s`, which are self time."""
    total, own, calls = tracer.times(first_span)
    c = tracer.counters
    admissible = enumerated = 0
    max_gap = CFG.effective_max_gap()
    for sextuplets, cfg in tracer.graph_inputs:
        enumerated += len(sextuplets) * (len(sextuplets) - 1)
        admissible += sum(
            1
            for cause in sextuplets
            for effect in sextuplets
            if cause.id != effect.id and 0.0 <= effect.t_start - cause.t_end <= max_gap
        )
    embeds = calls["embedding.provider"]
    prompts = calls["extraction.provider"]
    m = {
        "kb.retrieve_calls": (calls["kb.retrieve"], "count"),
        "kb.retrieve_s": (total["kb.retrieve"], "s"),
        "kb.entries_scanned": (c["kb.entries_scanned"], "count"),
        "kb.index_s": (total["kb.index"], "s"),
        "kb.build_windows_s": (total["kb.build_windows"], "s"),
        "kb.windows": (c["kb.windows"], "count"),
        "kb.save_s": (total["kb.save"], "s"),
        "kb.load_s": (total["kb.load"], "s"),
        "kb.file_bytes": (c["kb.file_bytes"], "B"),
        "embedding.embed_calls": (embeds, "count"),
        "embedding.distinct_texts": (len(tracer.embedded_texts), "count"),
        "embedding.useful_ratio": (len(tracer.embedded_texts) / embeds if embeds else 0.0, "ratio"),
        "embedding.embed_s": (total["embedding.provider"], "s"),
        "embedding.fuse_s": (total["embedding.fuse"], "s"),
        "embedding.window_mean_s": (own["embedding.window_embedding"], "s"),
        "graph.pairs_enumerated": (enumerated, "count"),
        "graph.pairs_admissible": (admissible, "count"),
        "graph.edges_kept": (c["graph.edges_kept"], "count"),
        "graph.kept_ratio": (c["graph.edges_kept"] / admissible if admissible else 0.0, "ratio"),
        "graph.nli_calls": (calls["graph.nli"], "count"),
        "graph.nli_distinct_pairs": (c["graph.nli_distinct_pairs"], "count"),
        "graph.nli_s": (total["graph.nli"], "s"),
        "graph.embed_calls": (calls["graph.embed_text"], "count"),
        "graph.build_s": (total["graph.build"], "s"),
        "graph.export_s": (total["graph.export"], "s"),
        "extraction.assemble_s": (total["extraction.assemble"], "s"),
        "extraction.render_s": (total["extraction.render"], "s"),
        "extraction.provider_calls": (prompts, "count"),
        "extraction.provider_s": (total["extraction.provider"], "s"),
        "extraction.parse_s": (total["extraction.parse"], "s"),
        "extraction.elements_rejected": (c["extraction.elements_rejected"], "count"),
        "extraction.sextuplets_raw": (c["extraction.sextuplets_raw"], "count"),
        "extraction.sextuplets_kept": (c["extraction.sextuplets_kept"], "count"),
        "extraction.dedup_ratio": (
            c["extraction.sextuplets_kept"] / c["extraction.sextuplets_raw"]
            if c["extraction.sextuplets_raw"] else 0.0,
            "ratio",
        ),
        "extraction.prompt_bytes_mean": (c["extraction.prompt_bytes"] / prompts if prompts else 0.0, "B"),
        "ingest.read_s": (total["ingest.read_dialogue"] + total["ingest.read_corpus"], "s"),
        "model.validate_calls_per_dialogue": (calls["model.validate"] / w.dialogues, "count"),
        "model.validate_s": (total["model.validate"], "s"),
        "metrics.evaluate_s": (total["metrics.evaluate"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in own.items() if k.startswith(layer + ".")), "s")
    t = transport or {}
    m.update({
        **{f"transport.requests.{e}": (t.get(f"requests.{e}", 0), "count") for e in ENDPOINTS},
        "transport.bytes_in": (t.get("bytes_in", 0), "B"),
        "transport.bytes_out": (t.get("bytes_out", 0), "B"),
        "transport.round_trip_s": (
            total["embedding.provider"] + total["extraction.provider"] + total["graph.nli"]
            if transport is not None else 0.0,
            "s",
        ),
        "transport.server_s": (t.get("server_s", 0.0), "s"),
        "transport.retries": (prompts - calls["extraction.extract_sextuplets"], "count"),
        "transport.failures": (t.get("failures", 0), "count"),
    })
    return m


def cross_checks(m: dict, p: PassResult, transport: dict | None, checks: Checks) -> None:
    """Counters taken at the layer boundaries agree with the outputs."""
    edges = sum(len(o.graph.edges) for o in p.outputs.values())
    kept = sum(len(o.sextuplets) for o in p.outputs.values())
    checks.record(m["graph.edges_kept"][0] == edges,
                  f"graph.edges_kept {m['graph.edges_kept'][0]} != len(graph.edges) {edges}")
    checks.record(m["extraction.sextuplets_kept"][0] == kept,
                  f"extraction.sextuplets_kept {m['extraction.sextuplets_kept'][0]} != {kept} sextuplets")
    checks.record(m["kb.windows"][0] == p.kb_windows,
                  f"kb.windows {m['kb.windows'][0]} != kb.meta.entry_count {p.kb_windows}")
    if transport is not None:
        for endpoint, metric in (("embed", "embedding.embed_calls"),
                                 ("chat", "extraction.provider_calls"),
                                 ("nli", "graph.nli_calls")):
            at_stub = transport.get(f"requests.{endpoint}", 0)
            checks.record(at_stub == m[metric][0],
                          f"stub saw {at_stub} /{endpoint} requests, wrapped provider made {m[metric][0]}")


def measure_traced(w: Workload, inputs: Inputs, seconds: float, work: Path, checks: Checks,
                   trace_path: Path, stub=None) -> Measured:
    """Alternate untraced and traced passes (jobs=1) for `seconds`; report the
    median of each per-layer metric over the traced passes. The trace
    overhead compares pass times with stolen time taken out (SpeedProbe)."""
    with SpeedProbe() as probe:
        return _measure_traced(w, inputs, seconds, work, checks, trace_path, stub, probe)


def _measure_traced(w, inputs, seconds, work, checks, trace_path, stub, probe: SpeedProbe) -> Measured:
    prov = remote_providers(stub) if stub else offline_providers()
    tracer = Tracer()
    traced = Providers(*traced_providers(prov.embedder, prov.extractor, prov.nli, tracer))
    plain = prov if stub else Providers(*CallCounter().providers(prov.embedder, prov.extractor, prov.nli))
    plain_s, traced_s, runs, stage_runs = [], [], [], []
    reference = None
    try:
        start = perf_counter()
        while not traced_s or perf_counter() - start < seconds:
            use_trace = len(plain_s) > len(traced_s)
            t_pass = perf_counter()
            if use_trace:
                tracer.counters.clear()
                tracer.embedded_texts.clear()
                tracer.graph_inputs.clear()
                first_span = len(tracer.spans)
                before = stub.snapshot() if stub else None
                with patched(tracer):
                    p = guarded_pass(w, inputs, traced, work / "traced", checks, tracer=tracer)
            else:
                p = guarded_pass(w, inputs, plain, work / "plain", checks)
            if p is None:
                if perf_counter() - start >= seconds * 3:
                    raise RuntimeError(f"{w.name}: traced run kept failing")
                continue
            checks.passed(len(p.outputs))
            if reference is None:
                reference = p
                check_oracle(w, p, checks)
            else:
                check_same(p, reference, "traced run" if use_trace else "untraced run", checks)
            if use_trace:
                transport = dict(stub.snapshot() - before) if stub else None
                m = layer_metrics(tracer, first_span, p, w, transport)
                cross_checks(m, p, transport, checks)
                runs.append(m)
                traced_s.append((t_pass, perf_counter()))
            else:
                plain_s.append((t_pass, perf_counter()))
                stage_runs.append(p.stages)
    finally:
        prov.close()

    traced_s = [probe.effective(a, b) for a, b in traced_s]
    plain_s = [probe.effective(a, b) for a, b in plain_s]
    metrics = {
        name: (statistics.median(r[name][0] for r in runs), unit)
        for name, (_, unit) in runs[0].items()
    }
    for stage in STAGES:
        metrics[f"pipeline.stage_{stage}_s"] = (statistics.median(s[stage] for s in stage_runs), "s")
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0, "ratio"
    )
    tracer.write(trace_path, {"workload": w.name, "environment": environment(),
                              "metrics": {k: v for k, (v, _) in metrics.items()}})
    notes = [
        f"{len(traced_s)} traced and {len(plain_s)} untraced passes; spans written to {trace_path}",
        f"error_rate: {checks.error_rate:g} ({checks.failed} of {checks.attempted} operations failed)",
    ]
    return Measured(metrics, notes, len(traced_s) + len(plain_s))
