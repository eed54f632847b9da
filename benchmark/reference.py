"""Fixed loops that measure how fast the machine runs now.

The module imports nothing, so a fresh interpreter can time `python_loop`
before importing lieext; that loop scales the import times behind setup_s.
`numpy_loop` does what lieext's operations spend their time on, many small
numpy calls from Python plus a dense SVD, and scales operation latencies:
on a shared 2-core host it followed the drift of operation times about
twice as closely as the pure-Python loop.  Neither loop touches lieext.
"""

REFERENCE_S = 0.002  # python_loop's time on the machine the figures are scaled to
NUMPY_REFERENCE_S = 0.002  # numpy_loop's time on that machine


def python_loop():
    acc = 0.0
    for i in range(25000):
        acc = (acc * 1.0000001 + i % 7) * 0.9999
    return acc


def numpy_loop():
    import numpy as np
    small = np.linspace(0.1, 0.9, 9).reshape(3, 3)
    dense = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    acc = np.eye(3)
    for _ in range(150):
        acc = 0.5 * (acc @ small) + np.eye(3) * 1e-3
        acc[0, 0] = float(np.sum(acc)) * 1e-3
    for _ in range(5):
        np.linalg.svd(dense, compute_uv=False)
    return acc
