"""Tests of the reference kernel that scales the benchmark's timings.

    python3 -m pytest benchmarks/tests -q
"""

import reference


def test_kernel_does_the_same_work_every_pass():
    kernel = reference.ReferenceKernel()
    assert kernel._run() == kernel._run() == reference.ReferenceKernel()._run()


def test_kernel_time_is_positive_and_near_nominal_scale():
    seconds = reference.ReferenceKernel().seconds()
    assert 0.0 < seconds < 100 * reference.NOMINAL_S
