import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from commonkv.model import ModelConfig  # noqa: E402

# 8 layers so group size 4 gives two groups, as at the real shapes
MICRO = ModelConfig(n_layers=8, d_hidden=16, n_q_heads=2, n_kv_heads=1, d_head=8,
                    d_mlp=32, max_seq=64)


def micro(workload):
    """The workload at a micro shape: same strategy and ratio, tiny sizes."""
    return dataclasses.replace(workload, config=MICRO, prompt_len=16, decode_len=4)


@pytest.fixture
def root():
    return ROOT
