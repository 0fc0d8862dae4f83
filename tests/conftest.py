"""Shared test helpers: finite-difference oracles and the acceptance summary.

Tests marked `acceptance` each cover one release criterion; a summary block
with one PASS/FAIL line per criterion is printed at the end of the run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdcnet
from fdcnet.tensor import GradTape, Tensor, backward


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def analytic_grad(f, x: np.ndarray) -> np.ndarray:
    """Tape gradient of scalar f(Tensor) at x."""
    t = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    with GradTape():
        loss = f(t)
        backward(loss)
    assert t.grad is not None, "no gradient reached the input"
    return t.grad.copy()


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def check_grad(f, x: np.ndarray, tol: float = 1e-5, h: float = 1e-5) -> float:
    """Assert analytic and FD gradients of scalar f agree; returns rel error."""
    ga = analytic_grad(f, x)
    gn = numeric_grad(lambda arr: float(f(Tensor(arr)).numpy()), np.asarray(x, float), h=h)
    err = rel_err(ga, gn)
    assert err < tol, f"gradient mismatch: rel err {err:.3g} >= {tol:g}"
    return err


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# the children import the same fdcnet as the tests
_SRC = str(Path(fdcnet.__file__).resolve().parents[1])


def write_past_size_limit(code: str, limit: int) -> int:
    """Exit code of ``code`` run in a child whose files may not grow past
    ``limit`` bytes, so a write fails part way as on a full disk."""
    pytest.importorskip("resource")
    prelude = (
        "import resource, signal\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", prelude + code], env=env).returncode


# -- acceptance summary -------------------------------------------------------

_ACCEPTANCE: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance(name): release criterion check")
    config.addinivalue_line("markers", "slow: long-running test")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        name = marker.args[0] if marker.args else item.name
        _ACCEPTANCE[name] = "PASS" if report.passed else "FAIL"
    elif marker and report.when == "setup" and report.outcome == "skipped":
        name = marker.args[0] if marker.args else item.name
        _ACCEPTANCE[name] = "SKIP"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in _ACCEPTANCE.items():
        terminalreporter.write_line(f"{status}  {name}")
