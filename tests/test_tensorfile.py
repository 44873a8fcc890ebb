import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonkv import tensorfile
from commonkv.errors import CommonKVError, InputError, NumericError


def _sample():
    rng = np.random.default_rng(0)
    return {
        "b.mat": rng.standard_normal((3, 4)).astype(np.float32),
        "a.vec": rng.standard_normal(5).astype(np.float32),
        "c.cube": rng.standard_normal((2, 2, 2)).astype(np.float32),
    }


def test_round_trip():
    tensors = _sample()
    blob = tensorfile.serialize(tensors, meta={"kind": "test", "seed": 1})
    loaded, meta = tensorfile.deserialize(blob)
    assert meta == {"kind": "test", "seed": 1}
    assert set(loaded) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_serialization_deterministic_regardless_of_insertion_order():
    tensors = _sample()
    reordered = {k: tensors[k] for k in reversed(list(tensors))}
    assert tensorfile.serialize(tensors) == tensorfile.serialize(reordered)


def test_byte_layout():
    tensors = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
    blob = tensorfile.serialize(tensors, meta={})
    (header_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + header_len])
    assert header["tensors"]["x"] == {"dtype": "f32", "shape": [2, 3], "offset": 0}
    payload = blob[8 + header_len:]
    # row-major little-endian f32
    assert np.frombuffer(payload, dtype="<f4").tolist() == [0, 1, 2, 3, 4, 5]


def test_payload_nbytes_counts_only_tensor_data():
    tensors = _sample()
    blob = tensorfile.serialize(tensors, meta={"padding": "x" * 100})
    (header_len,) = struct.unpack("<Q", blob[:8])
    assert len(blob) - 8 - header_len == 4 * sum(a.size for a in tensors.values())


def test_non_finite_rejected():
    with pytest.raises(NumericError):
        tensorfile.serialize({"bad": np.array([1.0, np.nan], dtype=np.float32)})


def test_zero_dimensional_tensor_round_trips_as_shape_empty():
    # used to be written as shape [1]
    blob = tensorfile.serialize({"s": np.float32(2.5), "v": np.ones(2, dtype=np.float32)})
    (header_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + header_len])
    assert header["tensors"]["s"] == {"dtype": "f32", "shape": [], "offset": 0}
    assert header["tensors"]["v"]["offset"] == 4
    loaded, _ = tensorfile.deserialize(blob)
    assert loaded["s"].shape == () and loaded["s"] == np.float32(2.5)
    assert loaded["v"].tolist() == [1.0, 1.0]
    with pytest.raises(NumericError):
        tensorfile.serialize({"s": np.float32(np.inf)})


def test_file_round_trip(tmp_path):
    path = tmp_path / "weights.tnsr"
    tensors = _sample()
    tensorfile.save(path, tensors, meta={"kind": "test"})
    loaded, meta = tensorfile.load(path)
    assert meta["kind"] == "test"
    np.testing.assert_array_equal(loaded["b.mat"], tensors["b.mat"])


# -- take_tensors --------------------------------------------------------------------

def test_take_tensors_copies_in_shapes_order_and_checks_only_what_it_names():
    tensors = _sample()
    tensors["layers.0.fused_out"] = np.ones((2, 3), dtype=np.float32)
    buf = bytearray(tensorfile.serialize(tensors))
    # a NaN poked into the payload past serialize, which refuses it
    tensorfile.deserialize(buf)[0]["layers.0.fused_out"][1, 2] = np.nan
    blob = bytes(buf)
    loaded, _ = tensorfile.deserialize(blob)
    shapes = {"c.cube": (2, 2, 2), "a.vec": (5,), "b.mat": (3, 4)}
    arrays = tensorfile.take_tensors(loaded, shapes, "test container")
    assert [a.shape for a in arrays] == list(shapes.values())
    for name, arr in zip(shapes, arrays):
        np.testing.assert_array_equal(arr, tensors[name])
        assert arr.flags.writeable
        assert not np.shares_memory(arr, np.frombuffer(blob, dtype=np.uint8))
    # the unread tensor holds a NaN and loads all the same
    assert np.isnan(loaded["layers.0.fused_out"]).any()


def test_take_tensors_looks_every_name_up_before_it_checks_any():
    loaded, _ = tensorfile.deserialize(tensorfile.serialize(_sample()))
    with pytest.raises(InputError, match="^test container lacks 'z.gone'$"):
        tensorfile.take_tensors(loaded, {"a.vec": (4,), "z.gone": (1,)}, "test container")
    with pytest.raises(InputError, match=r"^a\.vec: expected shape \(4,\), got \(5,\)$"):
        tensorfile.take_tensors(loaded, {"a.vec": (4,), "b.mat": (3, 4)}, "test container")


# -- corrupt containers ------------------------------------------------------------

def _header_blob(header: dict, payload: bytes = b"") -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw + payload


def test_cut_container_raises_input_error_only():
    blob = tensorfile.serialize(_sample(), meta={"kind": "test"})
    (header_len,) = struct.unpack("<Q", blob[:8])
    cuts = sorted({0, 3, 8, 9, 30, 8 + header_len // 2, 8 + header_len - 1, 8 + header_len,
                   8 + header_len + 5, len(blob) - 4, len(blob) - 1})
    for cut in cuts:
        with pytest.raises(InputError):
            tensorfile.deserialize(blob[:cut])


@pytest.mark.parametrize("header", [
    [1, 2],
    {"meta": {}},
    {"meta": [], "tensors": {}},
    {"tensors": {"x": {"dtype": "f64", "shape": [1], "offset": 0}}},
    {"tensors": {"x": "f32"}},
    {"tensors": {"x": {"dtype": "f32", "shape": [1], "offset": -4}}},
    {"tensors": {"x": {"dtype": "f32", "shape": [1.5], "offset": 0}}},
    {"tensors": {"x": {"dtype": "f32", "shape": [-1], "offset": 0}}},
    {"tensors": {"x": {"dtype": "f32", "shape": 4, "offset": 0}}},
    {"tensors": {"x": {"dtype": "f32", "shape": [1], "offset": "0"}}},
    {"tensors": {"x": {"dtype": "f32", "shape": [True], "offset": 0}}},
    {"tensors": {"x": {"dtype": "f32", "shape": [2], "offset": 4}}},
])
def test_malformed_header_raises_input_error(header):
    with pytest.raises(InputError):
        tensorfile.deserialize(_header_blob(header, payload=b"\0" * 8))


def test_bad_json_and_oversized_header_length_raise_input_error():
    with pytest.raises(InputError):
        tensorfile.deserialize(struct.pack("<Q", 5) + b"{oops")
    with pytest.raises(InputError):
        tensorfile.deserialize(struct.pack("<Q", 6) + b"\xff\xfe{}{}")
    with pytest.raises(InputError):
        tensorfile.deserialize(struct.pack("<Q", 2**63) + b"{}")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_container_only_raises_commonkv_errors(data):
    blob = bytearray(tensorfile.serialize(_sample(), meta={"kind": "test"}))
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    try:
        tensorfile.deserialize(bytes(blob))
    except CommonKVError:
        pass
