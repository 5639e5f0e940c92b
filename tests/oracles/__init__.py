"""Scalar reference implementations the fast kernels are checked against.

Only tests use them, so they live here rather than in ``src/``.
"""
