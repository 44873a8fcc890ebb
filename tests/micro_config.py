"""The micro model shape several test modules share.

It lives in a module of its own, not in ``conftest``: ``perfbench/tests`` has a
``conftest`` with a ``MICRO`` of its own, and one pytest process that collects
both suites imports only one module named ``conftest``.
"""

from commonkv.model import ModelConfig

MICRO = ModelConfig(n_layers=2, d_hidden=8, n_q_heads=2, n_kv_heads=1,
                    d_head=4, d_mlp=16, max_seq=32)
