"""The benchmark's reference checks accept correct output and reject wrong output.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import math
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from atompair import SystemParams, bell_state, integrate_volterra  # noqa: E402
from atompair.cli import write_trajectory_csv  # noqa: E402

POINT = {"R_rel": 10.0, "K_rel": 2.0, "r1": math.sqrt(3.0) / 2.0, "init": "phi_minus"}


def test_matrix_has_the_readme_characteristic_cubic():
    R, K, r1 = POINT["R_rel"], POINT["K_rel"], POINT["r1"]
    r2 = math.sqrt(1.0 - r1 * r1)
    M = checks.system_matrix(POINT)
    for s in (0.3 + 1.7j, -2.0 + 0.5j, 4.0):
        # D(s) = s^2 (s + lambda) + R^2 s + K^2 (s + lambda) - 2i K R^2 r1 r2
        D = s * s * (s + 1.0) + R * R * s + K * K * (s + 1.0) - 2j * K * R * R * r1 * r2
        assert abs(np.linalg.det(s * np.eye(3) - M) - D) <= 1e-9 * abs(D)


@pytest.mark.parametrize("kernel_sign", [1.0, -1.0])
def test_expm_comparison_rejects_a_corrupted_memory_kernel(tmp_path, kernel_sign):
    params = SystemParams(lam=1.0, W=POINT["R_rel"], alpha1=POINT["r1"],
                          alpha2=math.sqrt(1.0 - POINT["r1"] ** 2), K=POINT["K_rel"])
    traj = integrate_volterra(params, bell_state("minus"), 10.0, 20000, _kernel_sign=kernel_sign)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, traj)

    errors = checks.check_trajectory(POINT, path, random.Random(0), len(traj), 10.0)

    if kernel_sign > 0:
        assert errors == []
    else:
        assert any("amplitudes differ from expm" in e for e in errors), errors
