"""Feedback-coupled EEG denoising and emotion classification on synthetic data.

Importing the package imports no submodule, so the CLI can apply
FDCNET_THREADS to the BLAS thread environment before numpy loads.
"""
