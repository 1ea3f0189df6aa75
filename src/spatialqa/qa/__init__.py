from .items import (
    DEFAULT_WEIGHTS,
    FAMILIES,
    FORMATS,
    Payload,
    QAItem,
    SamplingConfig,
    canonical_json,
    derive_seed,
)
from .synth import Scene, synthesize_scene_qa

__all__ = [
    "DEFAULT_WEIGHTS", "FAMILIES", "FORMATS", "Payload", "QAItem",
    "SamplingConfig", "canonical_json", "derive_seed",
    "Scene", "synthesize_scene_qa",
]
