import pytest

from perfbench.stats import summarize, supported_tail


def test_summary_reports_median_p90_and_sample_count():
    s = summarize(list(range(1, 101)))
    assert s["n"] == 100
    assert s["p50"] == pytest.approx(50.5)
    assert s["p90"] == pytest.approx(90.1)


@pytest.mark.parametrize("n, tail", [(5, None), (19, None), (20, 50.0), (99, 50.0),
                                     (100, 90.0), (999, 90.0), (1000, 99.0),
                                     (10000, 99.9)])
def test_tail_needs_ten_samples_beyond_it(n, tail):
    assert supported_tail(n) == tail
    s = summarize([float(i) for i in range(n)])
    assert s["tail_q"] == tail
    assert (s["tail"] is None) == (tail is None)


def test_summary_of_no_samples_raises():
    with pytest.raises(ValueError):
        summarize([])
