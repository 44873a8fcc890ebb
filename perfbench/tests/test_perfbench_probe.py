import pytest

from perfbench.probe import WINDOW_S, ProbeLog, ReferenceStep

from conftest import MICRO


def test_factor_uses_the_median_of_probes_near_the_interval():
    log = ProbeLog(probe=None, nominal_s=2.0)
    log.starts = [0.0, 1.0, 1.1, 1.2, 5.0]
    log.seconds = [9.0, 1.0, 4.0, 2.0, 9.0]
    assert log.factor(1.0, 1.2) == pytest.approx(2.0 / 2.0)
    assert log.factor(5.0, 5.0) == pytest.approx(2.0 / 9.0)
    # the window reaches WINDOW_S either side of the interval, no further
    assert log.factor(1.2 + WINDOW_S, 1.2 + WINDOW_S) == pytest.approx(2.0 / 2.0)


def test_reference_step_times_itself():
    log = ProbeLog(ReferenceStep(MICRO, history=10), nominal_s=1e-3)
    log.record()
    log.record()
    assert len(log.seconds) == 2 and all(s > 0 for s in log.seconds)
    assert log.factor(log.starts[0], log.starts[-1]) > 0
