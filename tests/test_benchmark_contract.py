"""The names and state the benchmark under ``perfbench/`` reads from the program.

The benchmark's tracer wraps functions at their module bindings and replaces
methods in their own class's ``__dict__``, and its harness reads a session's
cache arrays to count copied bytes.  A refactor that drops a traced name,
moves a method to a base class, or stops calling a span the per-layer report
requires breaks the benchmark; these tests fail first, without a timed run.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import harness, metrics, spans, workloads  # noqa: E402
from perfbench.tests.conftest import micro  # noqa: E402

from commonkv.latent_cache import LatentSession  # noqa: E402
from commonkv.model import BaselineSession  # noqa: E402


@pytest.mark.parametrize("name", sorted(spans.SPAN_FUNCTIONS))
def test_every_traced_function_resolves(name):
    modname, attr = spans.SPAN_FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(modname), attr, None)), name


@pytest.mark.parametrize("name", sorted(spans.SPAN_METHODS))
def test_every_traced_method_is_defined_in_its_own_class_body(name):
    modname, cls, methods = spans.SPAN_METHODS[name]
    klass = getattr(importlib.import_module(modname), cls)
    for method in methods:
        assert callable(klass.__dict__.get(method)), f"{cls}.{method}"


@pytest.mark.parametrize("mode", harness.MODES)
def test_bytes_copied_reads_a_session_after_one_decode_step(fact07, probe_ids, mode):
    weights, fact, _ = fact07
    if mode == "baseline":
        session = BaselineSession(weights)
        session.prefill(probe_ids[:24])
    else:
        session = LatentSession(weights, fact)
        session.prefill(probe_ids[:24])
        session.plan_and_merge(0.5, strategy="mean")
    session.decode(int(probe_ids[24]))
    copied = harness.bytes_copied(mode, session)
    assert isinstance(copied, int) and copied > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_required_span_is_called(name):
    # one traced set-up and one session per mode at perfbench's own micro
    # shape; the traced benchmark reports a run as failed when a (span, mode,
    # phase) of metrics.SELF_TIMES is never called.  Calls are counted, never timed.
    workload = micro(workloads.WORKLOADS[name])
    seeds = workloads.derive_seeds(3)
    stream = workloads.token_stream(seeds.streams, 0, workload.stream_len)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.begin_session(-1, None)
        tracer.phase = "setup"
        setup = harness.set_up(workload, seeds, calibrate=True)
        tracer.phase = None
        for session, mode in enumerate(harness.MODES):
            tracer.begin_session(session, mode)
            result, _ = harness.run_session(mode, setup, workload, stream, tracer=tracer)
            assert result.error is None, result.error
    calls = spans.aggregate(tracer.spans)
    missing = [(span, mode, phase) for span, modes, phases in metrics.SELF_TIMES
               for mode in modes for phase in phases if (mode, phase, span) not in calls]
    assert not missing
