"""Desk-scale GQA inference engine with cross-layer shared-factor latent KV cache."""

__version__ = "0.1.0"
