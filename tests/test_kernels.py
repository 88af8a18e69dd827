"""Continuation kernels: results agree between the compiled path and the
pure-numpy fallback selected by SCHWARZ_ATLAS_NO_NUMBA, and the Gauss series
kernel reports the ways continuation can fail."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from schwarz_atlas import _kernels
from schwarz_atlas import gauss as G

_SNIPPET = """
import json
import numpy as np
from fractions import Fraction as F
from schwarz_atlas import _kernels
from schwarz_atlas import gauss as G
from schwarz_atlas import roots, torus

p = G.GaussParams(F(1, 84), F(13, 84), F(1, 2))
M = G.monodromy_at(p, 0)
A2 = roots.build(roots.RootSystemType("A", 2))
T = torus.mirror_monodromy(A2, F(1, 4), np.array([1, 0]))
print(json.dumps({
    "using_numba": _kernels.USING_NUMBA,
    "gauss": [[list(map(float, (v.real, v.imag))) for v in row] for row in M],
    "torus": [[list(map(float, (v.real, v.imag))) for v in row] for row in T],
}))
"""


def _run(disable_numba):
    env = dict(os.environ)
    if disable_numba:
        env[_kernels.NUMBA_ENV_FLAG] = "1"
    else:
        env.pop(_kernels.NUMBA_ENV_FLAG, None)
    proc = subprocess.run([sys.executable, "-c", _SNIPPET], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fallback_flag_honored_and_results_agree():
    compiled = _run(disable_numba=False)
    fallback = _run(disable_numba=True)
    assert fallback["using_numba"] is False
    for key in ("gauss", "torus"):
        a = np.array(compiled[key])
        b = np.array(fallback[key])
        assert np.max(np.abs(a - b)) < 1e-9


def test_kernel_reports_underflow_near_singularity():
    # a segment ending exactly on the singular point 1 cannot finish
    F0 = np.eye(2, dtype=np.complex128)
    _, _, _, ok = _kernels.gauss_segment(
        0.25 + 0j, 0.5 + 0j, 0.75 + 0j, complex(0.5), complex(1.0), F0, 1e-12)
    assert not ok


def test_kernel_raises_numeric_failure_when_series_cannot_converge():
    F0 = np.eye(2, dtype=np.complex128)
    with pytest.raises(_kernels.NumericFailure, match="did not converge") as info:
        _kernels.gauss_segment(
            2000 / 3 + 0j, 1 / 7 + 0j, 0.5 + 0j, complex(0.5), complex(0.5 + 0.4j), F0)
    assert not isinstance(info.value, ValueError)


def test_transport_names_the_singular_point_reached():
    p = G.GaussParams(F(1, 84), F(13, 84), F(1, 2))
    with pytest.raises(G.NumericFailure, match="singular point 1"):
        G._transport(p, (0.5, 1.0), np.eye(2, dtype=np.complex128))


def test_transport_raises_numeric_failure_on_overflow():
    p = G.GaussParams(F(400), F(1, 7), F(1, 2))
    with pytest.raises(G.NumericFailure, match="not finite"):
        G.monodromy_at(p, 0)
