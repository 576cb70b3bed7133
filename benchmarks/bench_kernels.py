"""Microbenchmarks of the scatter kernels.

Unlike the ``bench_fig*`` files these do not reproduce a paper figure;
they time the storage primitives behind every distributed operator —
bounded-dtype stable argsort, key-index build, ``split_by``,
``hash_split``, and indexed ``join_indices``.  Run with
``pytest benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import pytest

from repro.perf.bench import _kernel_cases

SCALE = 200_000
NUM_NODES = 16

_CASES = dict(_kernel_cases(SCALE, NUM_NODES, seed=0))


@pytest.mark.parametrize("name", sorted(_CASES))
def test_kernel(benchmark, name):
    benchmark.group = f"kernel: {name}"
    benchmark(_CASES[name])
