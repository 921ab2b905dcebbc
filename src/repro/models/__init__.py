"""Model zoo with CPU-sized counterparts of the paper's backbones."""

from .zoo import (build_cnn, build_lstm_lm, build_model_for_dataset,
                  build_vgg_style)

__all__ = [
    "build_cnn",
    "build_vgg_style",
    "build_lstm_lm",
    "build_model_for_dataset",
]
