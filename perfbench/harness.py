"""One benchmark run: set-up, memory pass, then the timed or traced session loop.

All program calls go through module attributes (``factorization.transform_model``
and so on) so that the tracer's wrappers, installed on those modules, see them.
Baseline and commonkv sessions alternate on identical teacher-forced token
streams, so drift on a shared host hits both modes alike.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import platform
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from commonkv import budget, factorization, latent_cache, model
from commonkv.errors import CommonKVError, NumericError

from perfbench import metrics, spans
from perfbench.probe import ProbeLog, ReferenceStep
from perfbench.stats import summarize
from perfbench.workloads import (GROUP_SIZE, RANK_FRACTION, Seeds, Workload,
                                 calibration_corpus, derive_seeds, token_stream)

MODES = metrics.MODES
ONE_SHOT_TOL = 1e-4
# set-up is repeated at least MIN_SETUPS times and, while cheap, until
# SETUP_BUDGET_S is spent, and the median is reported
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_BUDGET_S = 1.0
TRACED_SETUPS = 3
# traced wall time of a phase may exceed the span sum by wrapper overhead only
PHASE_WALL_TOL = 0.02
# long sessions also probe host speed between decode steps this often
PROBE_INTERVAL_S = 0.05
# untraced runs top up each mode's time-to-first-token sample to this size
# with sessions that end after their first token
MIN_TTFT_SAMPLES = 10

clock = time.perf_counter


@dataclass
class Setup:
    weights: model.ModelWeights
    fact: factorization.SharedFactorization
    fisher: budget.FisherWeights | None
    container_bytes: int


def set_up(workload: Workload, seeds: Seeds, calibrate: bool) -> Setup:
    """Model generation, transform, container round trip, Fisher if asked."""
    base = model.gen_toy_model(workload.config, seeds.model)
    blob, _report = factorization.transform_model(base, GROUP_SIZE, RANK_FRACTION)
    weights, fact = factorization.load_factorized(blob)
    fisher = None
    if calibrate:
        fisher = budget.estimate_fisher(weights, calibration_corpus(seeds.corpus),
                                        seed=seeds.corpus)
    return Setup(weights, fact, fisher, len(blob))


@dataclass
class SessionResult:
    mode: str
    error: str | None = None
    start: float = 0.0                 # clock() when the session began
    end: float = 0.0
    ttft_s: float = 0.0
    gaps_s: list[float] = field(default_factory=list)
    gap_starts: list[float] = field(default_factory=list)
    api_s: dict[str, float] = field(default_factory=dict)  # wall of each phase's calls
    logits: np.ndarray | None = None   # last prompt row, then one row per decode step
    achieved_ratio: float | None = None
    merged_groups: int | None = None
    traced_peak: int | None = None     # tracemalloc peak when decode ended
    # host-speed scales from the probes around the session, its prefill
    # phase and each decode gap (see probe.ProbeLog.factor)
    speed: float = 1.0
    ttft_speed: float = 1.0
    gap_speeds: list[float] = field(default_factory=list)

    def scaled_ttft_s(self) -> float:
        return self.ttft_s * self.ttft_speed

    def scaled_gaps_s(self) -> list[float]:
        return [g * f for g, f in zip(self.gaps_s, self.gap_speeds)]


def bytes_copied(mode: str, sess) -> int:
    """Bytes the last decode step rebuilt by concatenation, from array sizes.

    Baseline: every layer's keys and values, its key positions, and the cache
    positions.  Commonkv: every layer's suffix, the visible prefix+suffix
    latents and positions it concatenates, and the decode positions.
    """
    if mode == "baseline":
        cache = sess.cache
        kv = sum(lk.keys.nbytes + lk.values.nbytes for lk in cache.layers)
        return kv + (len(cache.layers) + 1) * cache.positions.nbytes
    store = sess.store
    positions = store.prefill_positions.nbytes + store.decode_positions.nbytes
    total = store.decode_positions.nbytes
    for layer, suffix in enumerate(store.suffixes):
        total += 2 * suffix.nbytes + store.prefix_for_layer(layer).nbytes + positions
    return total


def run_session(mode: str, setup: Setup, workload: Workload, stream: np.ndarray, *,
                probes: ProbeLog | None = None, tracer: spans.Tracer | None = None):
    """One teacher-forced session with its correctness gate.

    Returns ``(result, session)``; any ``CommonKVError``, non-finite logit or
    failed gate is recorded in ``result.error`` instead of raised.  With a
    probe log the session is timed: it keeps its logits and probes host speed
    before, after and (outside every timed window) during decode.
    """
    cfg = workload.config
    P, D = workload.prompt_len, workload.decode_len
    prompt = stream[:P]
    inputs = [int(t) for t in stream[P:P + D]]
    res = SessionResult(mode, api_s={"prefill": 0.0, "merge": 0.0, "decode": 0.0})
    timed = probes is not None
    rows = []
    sess = None
    if timed:
        probes.record()

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    try:
        res.start = t0 = clock()
        if mode == "baseline":
            sess = model.BaselineSession(setup.weights)
            phase("prefill")
            ta = clock()
            logits = sess.prefill(prompt)[-1]
            res.api_s["prefill"] = clock() - ta
        else:
            sess = latent_cache.LatentSession(setup.weights, setup.fact)
            phase("prefill")
            ta = clock()
            logits = sess.prefill(prompt)[-1]
            tb = clock()
            phase("merge")
            plan = sess.plan_and_merge(workload.target_ratio, workload.strategy, setup.fisher)
            res.api_s["prefill"] = tb - ta
            res.api_s["merge"] = clock() - tb
        int(np.argmax(logits))
        res.ttft_s = clock() - t0
        rows.append(logits)
        if timed:
            probes.record()    # brackets the first token tightly
        last_probe = clock()
        phase("decode")
        for tok in inputs:
            ta = clock()
            logits = sess.decode(tok)
            tb = clock()
            int(np.argmax(logits))
            res.gaps_s.append(clock() - ta)
            res.gap_starts.append(ta)
            res.api_s["decode"] += tb - ta
            if timed:
                rows.append(logits)
                if tb - last_probe >= PROBE_INTERVAL_S:
                    probes.record()
                    last_probe = clock()
            elif not np.isfinite(logits).all():
                raise NumericError("non-finite logit")
            if tracer is not None:
                phase(None)
                tracer.count("decode", "bytes_copied", bytes_copied(mode, sess))
                phase("decode")
        res.end = clock()
        if tracemalloc.is_tracing():
            res.traced_peak = tracemalloc.get_traced_memory()[1]

        phase("check")
        if mode == "baseline":
            held = sess.cache_element_count()
            expected = latent_cache.baseline_elements(cfg, P + D)
            if held != expected:
                res.error = f"baseline holds {held} elements, expected {expected}"
        else:
            audit = sess.audit()
            expected = plan.cost_per_token * P + cfg.n_layers * setup.fact.rank * D
            if audit.total_elements != expected:
                res.error = f"audit {audit.total_elements} elements, plan predicts {expected}"
            sess.store.verify_merged_prefixes()
            res.achieved_ratio = 1.0 - audit.total_elements / latent_cache.baseline_elements(
                cfg, P + D)
            res.merged_groups = len(plan.merged_groups)
    except CommonKVError as exc:
        res.error = f"{type(exc).__name__}: {exc}"
    finally:
        phase(None)
    if timed:
        probes.record()
        if res.error is None:
            res.logits = np.stack(rows)
            if not np.isfinite(res.logits).all():
                res.error = "non-finite logit"
    return res, sess


def one_shot_mismatch(setup: Setup, workload: Workload, stream: np.ndarray,
                      res: SessionResult) -> float:
    """Largest gap between per-step baseline logits and one full forward."""
    P, D = workload.prompt_len, workload.decode_len
    full, _ = model.forward_baseline(setup.weights, stream[:P + D])
    return float(np.max(np.abs(full[P - 1:P + D] - res.logits)))


def memory_pass(mode: str, setup: Setup, workload: Workload, stream: np.ndarray):
    """One untimed session under tracemalloc: (error, resident, peak, audited bytes)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res, sess = run_session(mode, setup, workload, stream)
        error = res.error
        peak = (res.traced_peak or before) - before
        del res
        gc.collect()
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    audited = 0
    if error is None:
        elements = sess.cache_element_count() if mode == "baseline" \
            else sess.audit().total_elements
        audited = 4 * elements
        if resident < audited:
            error = f"resident {resident} B below audited {audited} B"
    return error, resident, peak, audited


@dataclass
class Run:
    """Everything one run measured, before it is turned into metrics."""

    workload: Workload
    probes: ProbeLog
    setup_s: list[float] = field(default_factory=list)      # raw seconds per set-up
    setup_speed: list[float] = field(default_factory=list)  # host-speed scale of each
    attempted: int = 0
    failures: list[str] = field(default_factory=list)     # failed sessions
    problems: list[str] = field(default_factory=list)     # failed trace checks
    sessions: dict = field(default_factory=dict)          # (mode, traced) -> [SessionResult]
    # mode -> results of sessions that ended after their first token
    first_tokens: dict = field(default_factory=lambda: {m: [] for m in MODES})
    traced_ids: dict = field(default_factory=dict)        # tracer session id -> SessionResult
    memory: dict = field(default_factory=dict)            # mode -> (resident, peak, audited)
    one_shot_err: float | None = None
    drift_num: float = 0.0
    drift_den: float = 0.0
    nll_gaps: list[float] = field(default_factory=list)
    container_bytes: int = 0

    def record(self, res: SessionResult, traced: bool) -> bool:
        self.attempted += 1
        if res.error is not None:
            self.failures.append(f"{res.mode}: {res.error}")
            return False
        self.sessions.setdefault((res.mode, traced), []).append(res)
        return True


def _setups(run: Run, workload: Workload, seeds: Seeds, calibrate: bool,
            tracer: spans.Tracer | None) -> Setup:
    setup = None
    windows = []
    while True:
        n = len(run.setup_s)
        if tracer is not None:
            done = n >= TRACED_SETUPS
        else:
            done = n >= MAX_SETUPS or (n >= MIN_SETUPS and sum(run.setup_s) >= SETUP_BUDGET_S)
        if done:
            break
        run.probes.record()
        if tracer is not None:
            tracer.begin_session(-1 - n, None)    # set-up n is tracer session -1-n
            tracer.phase = "setup"
        t = clock()
        setup = set_up(workload, seeds, calibrate)
        windows.append((t, clock()))
        run.setup_s.append(windows[-1][1] - t)
        if tracer is not None:
            tracer.phase = None
    run.probes.record()
    run.setup_speed = [run.probes.factor(a, b) for a, b in windows]
    return setup


def _session_loop(run: Run, setup: Setup, workload: Workload, seeds: Seeds,
                  seconds: float, tracer: spans.Tracer | None) -> None:
    P, D = workload.prompt_len, workload.decode_len
    start = clock()
    k = 0
    while True:
        stream = token_stream(seeds.streams, k, workload.stream_len)
        # traced runs alternate two traced pairs with two untraced ones
        traced = tracer is not None and (k // 2) % 2 == 0
        pair = {}
        for mode in (MODES if k % 2 == 0 else MODES[::-1]):
            if traced:
                session_id = 2 * k + MODES.index(mode)
                tracer.begin_session(session_id, mode)
                with tracer.installed():
                    res, _ = run_session(mode, setup, workload, stream, probes=run.probes,
                                         tracer=tracer)
                run.traced_ids[session_id] = res
            else:
                res, _ = run_session(mode, setup, workload, stream, probes=run.probes)
            if res.error is None and mode == "baseline" and run.one_shot_err is None:
                run.one_shot_err = one_shot_mismatch(setup, workload, stream, res)
                if run.one_shot_err > ONE_SHOT_TOL:
                    res.error = (f"per-step logits differ from one-shot forward by "
                                 f"{run.one_shot_err:.3g}")
            if run.record(res, traced):
                pair[mode] = res
        if len(pair) == 2:
            base, comp = pair["baseline"].logits, pair["commonkv"].logits
            b64 = base.astype(np.float64)
            run.drift_num += float(np.sum((comp.astype(np.float64) - b64) ** 2))
            run.drift_den += float(np.sum(b64 ** 2))
            targets = stream[P:P + D + 1]
            run.nll_gaps.append(model.nll_from_logits(comp, targets)
                                - model.nll_from_logits(base, targets))
        for res in pair.values():
            res.logits = None
        k += 1
        # a traced run needs at least one untraced pair to measure its overhead
        if clock() - start >= seconds and (tracer is None or k > 2):
            break
    if tracer is None:
        _top_up_first_tokens(run, setup, workload, seeds, k)
    for sessions in (*run.sessions.values(), *run.first_tokens.values()):
        for res in sessions:
            res.speed = run.probes.factor(res.start, res.end)
            res.ttft_speed = run.probes.factor(res.start, res.start + res.ttft_s)
            res.gap_speeds = [run.probes.factor(t, t) for t in res.gap_starts]


def _top_up_first_tokens(run: Run, setup: Setup, workload: Workload, seeds: Seeds,
                         k: int) -> None:
    """Add first-token-only session pairs until every mode has enough TTFTs."""
    first_token = dataclasses.replace(workload, decode_len=0)
    while min(len(_ttft_sessions(run, m)) for m in MODES) < MIN_TTFT_SAMPLES:
        stream = token_stream(seeds.streams, k, first_token.stream_len)
        for mode in (MODES if k % 2 == 0 else MODES[::-1]):
            res, _ = run_session(mode, setup, first_token, stream, probes=run.probes)
            run.attempted += 1
            if res.error is not None:
                run.failures.append(f"{mode} (first token only): {res.error}")
            else:
                run.first_tokens[mode].append(res)
        k += 1


def _ttft_sessions(run: Run, mode: str) -> list[SessionResult]:
    return _pooled(run, mode, False) + run.first_tokens[mode]


def execute(workload: Workload, seed: int, seconds: float,
            tracer: spans.Tracer | None = None) -> Run:
    """Set up, run the memory pass (untraced runs only) and the session loop."""
    seeds = derive_seeds(seed)
    run = Run(workload, ProbeLog(ReferenceStep(workload.config, workload.probe_history),
                                       workload.probe_nominal_s))
    # a traced run always calibrates, so every workload reports the Fisher layer
    calibrate = workload.strategy == "fisher" or tracer is not None
    if tracer is not None:
        with tracer.installed():
            setup = _setups(run, workload, seeds, calibrate, tracer)
    else:
        setup = _setups(run, workload, seeds, calibrate, None)
        stream = token_stream(seeds.streams, 0, workload.stream_len)
        for mode in MODES:
            error, resident, peak, audited = memory_pass(mode, setup, workload, stream)
            run.attempted += 1
            if error is not None:
                run.failures.append(f"{mode} (memory pass): {error}")
            run.memory[mode] = (resident, peak, audited)
    run.container_bytes = setup.container_bytes
    _session_loop(run, setup, workload, seeds, seconds, tracer)
    return run


def _pooled(run: Run, mode: str, traced: bool) -> list[SessionResult]:
    return run.sessions.get((mode, traced), [])


def _gaps_ms(sessions: list[SessionResult], scaled: bool = True) -> dict:
    """Summary of every decode gap, by default at nominal host speed."""
    return summarize([g * 1e3 for r in sessions
                      for g in (r.scaled_gaps_s() if scaled else r.gaps_s)])


def end_to_end(run: Run) -> tuple[dict[str, float], list[str]]:
    """End-to-end metric values plus human-readable detail lines.

    Times are scaled to the nominal host speed (see ``probe``); the detail
    lines give the raw medians and the range of the scales.
    """
    wl = run.workload
    tokens = wl.prompt_len + wl.decode_len
    values = {"setup_s": statistics.median(
        t * f for t, f in zip(run.setup_s, run.setup_speed))}
    lines = [f"setup: {len(run.setup_s)} repeats, median {values['setup_s']:.4f} s "
             f"(raw {statistics.median(run.setup_s):.4f} s)"]
    for mode in MODES:
        sessions = _pooled(run, mode, False)
        gaps = _gaps_ms(sessions)
        firsts = _ttft_sessions(run, mode)
        values[f"{mode}.ttft_ms"] = statistics.median(r.scaled_ttft_s() * 1e3 for r in firsts)
        values[f"{mode}.decode_ms_p50"] = gaps["p50"]
        values[f"{mode}.decode_ms_p90"] = gaps["p90"]
        # session wall time is its time to first token plus its decode gaps;
        # the probes between steps are left out
        values[f"{mode}.tok_s"] = statistics.median(
            tokens / (r.scaled_ttft_s() + sum(r.scaled_gaps_s())) for r in sessions)
        resident, peak, audited = run.memory[mode]
        values[f"{mode}.cache_bytes_per_token"] = resident / tokens
        values[f"{mode}.peak_alloc_mb"] = peak / 1e6
        tail = (f", p{gaps['tail_q']:g} {gaps['tail']:.4f} ms"
                if gaps["tail_q"] not in (None, 50.0, 90.0) else "")
        speeds = [f for r in sessions for f in r.gap_speeds]
        lines.append(f"{mode}: {len(sessions)} sessions and "
                     f"{len(run.first_tokens[mode])} first-token-only sessions, "
                     f"{gaps['n']} decode gaps{tail}; "
                     f"raw decode p50 {_gaps_ms(sessions, scaled=False)['p50']:.4f} ms, "
                     f"raw ttft median {statistics.median(r.ttft_s for r in firsts) * 1e3:.3f}"
                     f" ms; host-speed scale {min(speeds):.3f}..{max(speeds):.3f}")
        lines.append(f"{mode}: resident {resident} B vs 4 x audited elements {audited} B")
    ckv = _pooled(run, "commonkv", False)
    values["commonkv.achieved_ratio"] = statistics.median(r.achieved_ratio for r in ckv)
    values["commonkv.logit_drift"] = math.sqrt(run.drift_num / run.drift_den)
    lines.append(f"commonkv.nll_gap = {statistics.mean(run.nll_gaps):.6f} nats "
                 f"(commonkv minus baseline decode NLL, mean of {len(run.nll_gaps)} pairs)")
    lines.append(f"ops_failed_frac = {len(run.failures) / run.attempted:.6g} "
                 f"({len(run.failures)} of {run.attempted} sessions)")
    lines.append(f"one-shot baseline check: max |logit diff| {run.one_shot_err:.3g} "
                 f"(limit {ONE_SHOT_TOL:g})")
    return values, lines


def per_layer(run: Run, tracer: spans.Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from the traced sessions, with accounting checks."""
    wl, cfg = run.workload, run.workload.config
    speed = {sid: res.speed for sid, res in run.traced_ids.items()}
    speed.update({-1 - n: f for n, f in enumerate(run.setup_speed)})
    raw = spans.aggregate(tracer.spans)
    scaled = spans.aggregate(tracer.spans, speed)
    traced = {mode: _pooled(run, mode, True) for mode in MODES}
    norms = {"steps": {m: len(traced[m]) * wl.decode_len for m in MODES},
             "sessions": {m: len(traced[m]) for m in MODES},
             "setups": len(run.setup_s)}
    lines = []
    problems = []
    for mode in MODES:
        for phase in ("prefill", "decode") if mode == "baseline" else ("prefill", "merge",
                                                                        "decode"):
            root = raw.get((mode, phase, "<root>"), {"total": 0.0})["total"]
            self_sum = sum(e["self"] for (m, p, n), e in raw.items()
                           if m == mode and p == phase and n != "<root>")
            wall = sum(r.api_s[phase] for r in traced[mode])
            lines.append(f"{mode} {phase}: span self-time sum {self_sum * 1e3:.3f} ms, "
                         f"traced phase wall {wall * 1e3:.3f} ms (raw)")
            if abs(self_sum - root) > 1e-9 * max(1.0, root) or \
                    abs(wall - root) > PHASE_WALL_TOL * wall:
                problems.append(f"{mode} {phase}: self times do not add up to the phase wall")
        steps = norms["steps"][mode]
        rope = raw.get((mode, "decode", "model.apply_rope"), {"calls": 0})["calls"]
        if rope != 2 * cfg.n_layers * steps:
            problems.append(f"{mode}: {rope} apply_rope calls over {steps} decode steps, "
                            f"expected {2 * cfg.n_layers} per step (missed binding?)")
    for span, modes, phases in metrics.SELF_TIMES:
        for mode in modes:
            for phase in phases:
                if raw.get((mode, phase, span), {"calls": 0})["calls"] == 0:
                    problems.append(f"span {span} never seen in {mode or 'setup'} {phase}")

    p50 = {t: _gaps_ms(_pooled(run, "commonkv", t))["p50"] for t in (True, False)}
    lines.append(f"tracing overhead on commonkv.decode_ms_p50: traced {p50[True]:.4f} ms, "
                 f"untraced {p50[False]:.4f} ms")
    extras = {"budget.merged_groups": float(traced["commonkv"][0].merged_groups),
              "tensorfile.container_bytes": float(run.container_bytes),
              "trace.overhead.commonkv.decode_ms_p50": p50[True] - p50[False]}
    values = metrics.per_layer_values(scaled, tracer.counts, norms, extras)
    lines += [f"TRACE CHECK FAILED: {p}" for p in problems]
    run.problems += problems
    return values, lines


def environment(seed: int) -> dict:
    info = {"numpy": np.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(), "seed": seed}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  out_dir: Path | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and detail lines to print."""
    tracer = spans.Tracer() if trace else None
    run = execute(workload, seed, seconds, tracer)
    lines = [f"workload {workload.name}: {workload.why}", f"env: {environment(seed)}"]
    if run.failures:
        # metrics over a partial set of sessions would mislead; report none
        lines += [f"FAILED: {f}" for f in run.failures]
        specs = []
    elif trace:
        values, more = per_layer(run, tracer)
        lines += more
        specs = metrics.per_layer_specs()
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl.gz"
            tracer.write(path)
            lines.append(f"{len(tracer.spans)} spans written to {path}")
    else:
        values, more = end_to_end(run)
        lines += more
        specs = [(n, u, b) for n, u, b, _ in metrics.END_TO_END]
    report = {}
    for name, unit, better in specs:
        report[name] = {"value": values[name], "unit": unit}
        lines.append(f"{workload.name} {name} = {values[name]:.6g} {unit} ({better} is better)")
    result = {"correct": not (run.failures or run.problems), "attempted": run.attempted,
              "failed": len(run.failures), "metrics": report}
    return result, lines
