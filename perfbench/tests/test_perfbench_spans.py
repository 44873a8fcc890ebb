import pytest

from commonkv import latent_cache, model

from perfbench import spans


def _span(name, start, end, parent, phase="decode", mode="commonkv"):
    return [name, start, end, parent, 0, phase, mode]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_aggregate_groups_by_mode_phase_and_name():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a", 5.0, 6.0, 0),
        _span("root", 20.0, 22.0, -1, mode="baseline"),
    ]
    agg = spans.aggregate(tree)
    assert agg[("commonkv", "decode", "a")] == {"self": 4.0, "total": 4.0, "calls": 2}
    assert agg[("commonkv", "decode", "root")]["self"] == pytest.approx(6.0)
    assert agg[("commonkv", "decode", "<root>")]["total"] == pytest.approx(10.0)
    assert agg[("baseline", "decode", "<root>")]["total"] == pytest.approx(2.0)


def test_install_wraps_every_binding_and_restores_them():
    originals = (model.apply_rope, latent_cache.apply_rope, model.BaselineSession.decode)
    assert originals[0] is originals[1]
    tracer = spans.Tracer()
    with tracer.installed():
        assert model.apply_rope is not originals[0]
        assert latent_cache.apply_rope is model.apply_rope
        assert model.BaselineSession.decode is not originals[2]
    assert (model.apply_rope, latent_cache.apply_rope,
            model.BaselineSession.decode) == originals


def test_nothing_recorded_outside_a_phase():
    tracer = spans.Tracer()
    with tracer.installed():
        model.rms_norm(model.np.ones((1, 4), dtype=model.np.float32),
                       model.np.ones(4, dtype=model.np.float32))
        assert tracer.spans == []
        tracer.phase = "decode"
        model.rms_norm(model.np.ones((1, 4), dtype=model.np.float32),
                       model.np.ones(4, dtype=model.np.float32))
    assert [rec[spans.NAME] for rec in tracer.spans] == ["model.rms_norm"]
