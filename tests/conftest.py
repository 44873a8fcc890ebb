import pytest
from hypothesis import settings

from commonkv.corpus import markov_byte_corpus
from commonkv.factorization import load_factorized, transform_model
from commonkv.model import ModelConfig, gen_toy_model
from micro_config import MICRO

# Every property test draws the same examples on every run and keeps no
# example database, so a tier-1 run does not depend on the runs before it.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def toy_cfg():
    return ModelConfig()


@pytest.fixture(scope="session")
def toy_weights(toy_cfg):
    return gen_toy_model(toy_cfg, 42)


@pytest.fixture(scope="session")
def micro_weights():
    return gen_toy_model(MICRO, 7)


@pytest.fixture(scope="session")
def fact07(toy_weights):
    """Toy model factorized at group size 4, rank fraction 0.7."""
    blob, report = transform_model(toy_weights, 4, 0.7)
    weights, fact = load_factorized(blob)
    return weights, fact, report


@pytest.fixture(scope="session")
def fact_full(toy_weights):
    """Full-rank factorization (group size 4): the identity configuration."""
    blob, _ = transform_model(toy_weights, 4, 1.0)
    return load_factorized(blob)


@pytest.fixture()
def probe_ids():
    return markov_byte_corpus(11, 1, 128)[0]
