"""Modules of the package import only each other's public names, the round
loop reaches the certificates only through Certificates, the statevector
kernels make only the BLAS calls listed here, and the kernel and round-loop modules keep no
mutable state at module level. Importing the package loads no network or
mail module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from lyapcut import dynamics, statevector

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "lyapcut"
# numpy entry points that reach BLAS; np.einsum does too when passed optimize=.
BLAS_CALLS = ("dot", "vdot", "tensordot", "matmul", "inner")


def private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [f"from .{node.module or ''} import {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_names_imported_across_modules():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths
    offenders = {p.name: bad for p in paths if (bad := private_imports(p.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_detector_flags_a_private_import():
    assert private_imports("from .experiments import run_suite, _atomic_write\n") == [
        "from .experiments import _atomic_write"
    ]


# The tracker arithmetic that Certificates owns; dynamics must not reach past it.
CERTIFICATE_INTERNALS = ("one_param_step", "two_param_step", "max_step_size", "DenominatorCollapse",
                         "OneParamTracker", "TwoParamTracker")


def imported_names(source: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.rpartition(".")[2] for a in node.names}
    return found


def test_dynamics_imports_no_certificate_internals():
    names = imported_names((PACKAGE_DIR / "dynamics.py").read_text(encoding="utf-8"))
    assert sorted(names & set(CERTIFICATE_INTERNALS)) == []


def test_detector_lists_imported_names():
    source = "import math\nfrom .certificates import Certificates, two_param_step as step\n"
    assert imported_names(source) == {"math", "Certificates", "two_param_step"}


def blas_calls(source: str) -> list[str]:
    """The BLAS-reaching calls of source, sorted: the named entry points, the @ operator and linalg.norm."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if isinstance(node.func, ast.Attribute) and (node.func.attr in BLAS_CALLS or name.endswith("linalg.norm")):
            found.append(name)
        found += [f"{name}(optimize=...)" for kw in node.keywords if kw.arg == "optimize"]
    return sorted(found)


# The BLAS calls statevector keeps. expectation_diagonal's probs @ weights is numpy's
# float64 vector matmul, cblas_ddot: any other summation changes <H_f> in its last
# digits and with it the trace bytes. StateVector.norm serves the round loop's drift
# check, once every NORM_CHECK_EVERY rounds and after the last. apply_rx_blocks' two
# np.matmul calls (the block at qubit 0 from the right, every other block from the
# left) are the RX row's products, cblas_zgemm. feedback_observable's np.matmul makes
# the 8 x 8 Gram blocks of its pure X_j terms from the switch on, cblas_dgemm.
KEPT_BLAS_CALLS = ["np.linalg.norm", "np.matmul", "np.matmul", "np.matmul", "probs @ weights"]


def test_statevector_kernels_make_no_blas_call():
    # The matmuls of the RX row and of the feedback's Gram blocks run on one thread: both
    # kernels set OpenBLAS's count to 1 around them (_one_blas_thread), in the parent and in
    # every pool worker alike, so no product waits for a core that another worker or process
    # holds. A new BLAS call is listed above with its reason.
    assert blas_calls((PACKAGE_DIR / "statevector.py").read_text(encoding="utf-8")) == KEPT_BLAS_CALLS


def test_detector_flags_blas_calls():
    source = ("v = np.vdot(a, b)\nw = numpy.matmul(a, b)\nz = h.real.dot(d)\n"
              "x = np.einsum('i,i->', a, b, optimize=True)\ny = np.einsum('i,i->', a, b)\n"
              "u = float(p @ q)\nr = np.linalg.norm(a)\nt = a * b\n")
    assert blas_calls(source) == ["h.real.dot", "np.einsum(optimize=...)", "np.linalg.norm", "np.vdot",
                                  "numpy.matmul", "p @ q"]


def mutable_globals(namespace: dict) -> list[str]:
    """Names bound to a dict, list, set or writable numpy array, dunder names aside."""
    return sorted(name for name, value in namespace.items() if not name.startswith("__") and (
        isinstance(value, (dict, list, set)) or isinstance(value, np.ndarray) and value.flags.writeable))


def test_kernel_and_loop_modules_bind_no_mutable_global():
    # A per-run table belongs on the Mixer; a module-level one would outlive the run and leak between runs.
    assert {m.__name__: mutable_globals(vars(m)) for m in (statevector, dynamics)} == {
        "lyapcut.statevector": [], "lyapcut.dynamics": []}


def test_detector_flags_mutable_globals():
    frozen = np.zeros(2)
    frozen.flags.writeable = False
    namespace = {"CACHE": {}, "ROWS": [], "SEEN": set(), "TABLE": np.zeros(2), "SIGNS": frozen,
                 "NAMES": ("a",), "KINDS": frozenset("b"), "__builtins__": {}}
    assert mutable_globals(namespace) == ["CACHE", "ROWS", "SEEN", "TABLE"]


# Modules that xml.sax.saxutils drags in through urllib; none serves a simulation.
HEAVY_MODULES = ("urllib.request", "http.client", "ssl", "email")


def test_importing_the_package_loads_no_network_or_mail_module():
    code = f"import sys, lyapcut; print(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert result.stdout.strip() == "[]"
