"""Tiny model shapes shared by tests that run finite-difference gradient checks."""

from ctcfuse.model import ModelConfig


def toy_config(vocab_size: int, feature_dim: int = 4) -> ModelConfig:
    """Two encoder and two decoder layers of width 8, one N-best memory layer."""
    return ModelConfig(
        d_model=8,
        num_heads=2,
        ffn_dim=16,
        encoder_layers=2,
        decoder_layers=2,
        ne_layers=1,
        vocab_size=vocab_size,
        feature_dim=feature_dim,
    )
