"""Desk-scale GQA inference engine with cross-layer shared-factor latent KV cache."""

from .budget import (BudgetPlan, FisherWeights, allocate_budget, estimate_fisher,
                     group_score, merge_group)
from .errors import (CapacityError, CommonKVError, ConfigurationError, InputError,
                     NumericError, UnreachableRatioError)
from .factorization import (GroupLayout, SharedFactorization, build_factorization,
                            concat_group_weights, factorize_group, fuse_value_output,
                            load_factorized, transform_model)
from .latent_cache import (CacheAudit, LatentCacheStore, LatentSession, attend_latent,
                           compute_latent, restore_keys)
from .model import (BaselineSession, ModelConfig, ModelWeights, apply_rope,
                    build_rope_table, forward_baseline, gen_toy_model, load_model,
                    loss_and_grads, save_model)

__version__ = "0.1.0"
