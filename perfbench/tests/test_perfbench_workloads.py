import numpy as np

from perfbench.workloads import (WORKLOADS, calibration_corpus, derive_seeds,
                                 token_stream)


def test_token_streams_are_a_pure_function_of_the_seed():
    a = token_stream(5, 3, 200)
    assert np.array_equal(a, token_stream(5, 3, 200))
    assert not np.array_equal(a, token_stream(6, 3, 200))
    assert not np.array_equal(a, token_stream(5, 4, 200))
    assert a.dtype == np.int64 and a.min() >= 0 and a.max() < 256


def test_derived_seeds_and_corpus_repeat():
    assert derive_seeds(9) == derive_seeds(9)
    assert derive_seeds(9) != derive_seeds(10)
    c1, c2 = calibration_corpus(4), calibration_corpus(4)
    assert all(np.array_equal(x, y) for x, y in zip(c1, c2))


def test_workload_shapes():
    assert set(WORKLOADS) == {"wide-decode", "wide-prefill", "toy-chat"}
    for w in WORKLOADS.values():
        assert w.stream_len == w.prompt_len + w.decode_len + 1
        assert w.stream_len - 1 <= w.config.max_seq
