"""Shared helpers for the test suite."""

import numpy as np


def link_lookup(channels):
    """Function mapping a stacked channel array (k, n) back to the
    (satellite, terminals) it was stacked from, one row per link of the
    channel map ``channels``."""
    links = {h.tobytes(): key for key, h in channels.items()}
    assert len(links) == len(channels)

    def served(h):
        keys = [links[row.tobytes()] for row in h]
        sat_ids = {s for s, _ in keys}
        assert len(sat_ids) == 1
        return sat_ids.pop(), tuple(c for _, c in keys)

    return served


def random_unit(rng, n):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return u / np.linalg.norm(u)


def random_psd(rng, n, trace):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return m * (trace / float(np.trace(m).real))


def random_feasible_set(rng, ids, n, power_cap):
    """Random PSD matrices with traces strictly inside the cap."""
    return {c: random_psd(rng, n, rng.uniform(0.05, 0.95) * power_cap) for c in ids}


def random_hermitian(rng, n):
    d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (d + d.conj().T)
