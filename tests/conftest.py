import math
import sys
import threading

import numpy as np
import pytest

from emilink import LinkBudget, Scenario


@pytest.fixture
def budget():
    return LinkBudget()


@pytest.fixture
def scenario():
    return Scenario()


def random_unit_diag_psd(rng, n):
    """Random Hermitian PSD matrix normalized to a unit diagonal."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T + n * np.eye(n)
    d = np.sqrt(np.real(np.diag(m)))
    return m / np.outer(d, d)


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def gram_oracle(positions, wavelength, density, nodes=64):
    """The quadrature as a Gram product S diag(w f / mass) S^H over every node.

    ``positions`` are the (N, 3) element positions in the frame the
    density's angles are measured in.  Builds its own density window,
    density values, tensor Gauss-Legendre rule and steering matrix.
    """
    half = math.pi / 2
    spread_a, spread_e = 8 * density.std_azimuth, 8 * density.std_elevation
    phi_lo, phi_hi = (max(-half, density.mean_azimuth - spread_a),
                      min(half, density.mean_azimuth + spread_a))
    th_lo, th_hi = (max(-half, density.mean_elevation - spread_e),
                    min(half, density.mean_elevation + spread_e))
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = 0.5 * (phi_hi + phi_lo) + 0.5 * (phi_hi - phi_lo) * x
    th = 0.5 * (th_hi + th_lo) + 0.5 * (th_hi - th_lo) * x
    pp, tt = (a.ravel() for a in np.meshgrid(phi, th, indexing="ij"))
    weights = np.outer(0.5 * (phi_hi - phi_lo) * w, 0.5 * (th_hi - th_lo) * w).ravel()
    f = np.cos(tt) * np.exp(-0.5 * ((pp - density.mean_azimuth) / density.std_azimuth) ** 2
                            - 0.5 * ((tt - density.mean_elevation) / density.std_elevation) ** 2)
    wf = weights * f / np.sum(weights * f)
    k = (2 * np.pi / wavelength) * np.stack(
        [np.cos(tt) * np.cos(pp), np.cos(tt) * np.sin(pp), np.sin(tt)])
    steering = np.exp(1j * (positions @ k))
    return (steering * wf) @ steering.conj().T


def run_concurrently(jobs, timeout=30.0):
    """Run each zero-argument job in its own thread, all released at once by a
    barrier, and return their results in order.  The interpreter switches
    threads every microsecond meanwhile, so that shared state is interleaved
    finely.  An exception in a job is collected, not left to escape its thread,
    and fails the calling test."""
    barrier, results, errors = threading.Barrier(len(jobs)), [None] * len(jobs), []

    def work(i):
        try:
            barrier.wait(timeout)
            results[i] = jobs[i]()
        except Exception as exc:  # reported below, with the job it came from
            errors.append((i, exc))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a job did not finish"
    assert not errors, errors
    return results
