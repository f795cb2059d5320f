import os
import tracemalloc

import numpy as np
import pytest


def pytest_report_header(config):
    """Which leave-one-out fold path the run takes: serial, or refits on fold threads."""
    from preimage.evaluation import BLAS_THREAD_VARS, _fold_workers

    threads = ", ".join(f"{var}={os.environ[var]!r}" for var in BLAS_THREAD_VARS if var in os.environ)
    return f"BLAS threads: {threads or 'none set'}; leave-one-out fold workers: {_fold_workers()}"


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q prints no header, so the fold path goes at the end
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_rotation(dim, seed=0):
    """Haar rotation matrix (det +1) for rigid-motion invariance checks."""
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _assert_within_cond(got, want, conds):
    """Equal NaN positions; finite errors within 64 eps cond of the explicit fold's condition
    estimate, relative to the error where it exceeds 1."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    tol = 64 * np.finfo(float).eps * conds[ok] * np.maximum(1.0, want[ok])
    assert np.all(np.abs(got[ok] - want[ok]) <= tol), np.max(np.abs(got[ok] - want[ok]) / tol)


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees allocated while call() runs, the result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
