"""Run metadata recorded with every result.

numpy's SIMD log/exp can differ from libm in the last bit, so the CPU's SIMD
flags and the numpy build are part of what makes two runs' digests
comparable.
"""

import os
from pathlib import Path
import platform
import re

_SIMD = re.compile(r"^(sse|ssse|avx|fma|f16c|bmi|popcnt|amx|vaes|vpclmul|sha_ni)")


def _cpuinfo():
    model, flags = None, []
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model is None:
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = sorted(f for f in value.split() if _SIMD.match(f))
                if model and flags:
                    break
    except OSError:
        pass
    return model, flags


def _git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def collect(root, workload, seed):
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        from numpy._core import _multiarray_umath as umath
        numpy_simd = sorted(k for k, on in umath.__cpu_features__.items() if on)
    except (ImportError, AttributeError):
        numpy_simd = None
    model, flags = _cpuinfo()
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_simd_flags": flags,
        "numpy_simd_features": numpy_simd,
    }
