"""tailshift: long-tailed classification under domain shift.

Library layout (``import tailshift`` loads none of these; import each by
name, e.g. ``from tailshift import meta``):

- ``mathcore``   float64 tensors, reverse-mode gradients + fd oracle, rng
- ``losses``     calibrated classification, contrastive alignment and
                 implicit augmentation kernels
- ``banks``      per-domain prototype bank (EMA) and per-class running
                 covariance with similarity-guided blending
- ``model``      small MLP feature extractor, linear classifier, visual <->
                 semantic encoder/decoder, parameter utilities
- ``meta``       episodic meta-train/meta-test loop with ablation toggles
- ``data``       synthetic multi-domain long-tailed benchmark + CSV loaders
- ``evaluation`` open-class confidence thresholding, Acc-U/Acc/H metrics,
                 distribution diagnostics
- ``cli``        gen-data / train / eval / gradcheck / ablate commands
- ``__main__``   the ``tailshift`` / ``python -m tailshift`` entry: BLAS on one
                 thread unless the environment says otherwise, then ``cli``
"""

__version__ = "0.1.0"
