"""Property-based tests: thrust primitives vs their NumPy oracles.

Each property creates its own :class:`Device` (hypothesis re-enters the
test body many times, which a function-scoped fixture would not survive)
and verifies both the values and the allocator balance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import thrust
from repro.cuda.device import Device

finite_doubles = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)

keys_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=0, max_value=64),
    elements=st.integers(min_value=-8, max_value=8),
)

value_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=64),
    elements=finite_doubles,
)


@settings(max_examples=60, deadline=None)
@given(keys=keys_arrays, data=st.data())
def test_sort_by_key_matches_stable_argsort(keys, data):
    vals = data.draw(
        hnp.arrays(np.float64, keys.shape, elements=finite_doubles)
    )
    device = Device()
    dk = device.to_device(keys.copy())
    dv = device.to_device(vals.copy())
    thrust.sort_by_key(dk, dv)
    order = np.argsort(keys, kind="stable")
    assert np.array_equal(dk.data, keys[order])
    assert np.array_equal(dv.data, vals[order])
    dk.free()
    dv.free()
    assert device.allocator.used_bytes == 0


@settings(max_examples=60, deadline=None)
@given(keys=keys_arrays, data=st.data())
def test_reduce_by_key_matches_numpy_oracle(keys, data):
    vals = data.draw(
        hnp.arrays(np.float64, keys.shape, elements=finite_doubles)
    )
    keys = np.sort(keys)  # reduce_by_key requires sorted keys
    device = Device()
    dk = device.to_device(keys)
    dv = device.to_device(vals)
    uk, sums = thrust.reduce_by_key(dk, dv)
    expect_keys = np.unique(keys)
    expect_sums = np.array(
        [vals[keys == u].sum() for u in expect_keys], dtype=np.float64
    )
    assert np.array_equal(uk.data, expect_keys)
    np.testing.assert_allclose(sums.data, expect_sums, rtol=1e-12, atol=1e-12)
    for b in (dk, dv, uk, sums):
        b.free()
    assert device.allocator.used_bytes == 0


@settings(max_examples=60, deadline=None)
@given(vals=value_arrays)
def test_inclusive_scan_matches_cumsum(vals):
    device = Device()
    da = device.to_device(vals)
    out = thrust.inclusive_scan(da)
    np.testing.assert_allclose(
        out.data, np.cumsum(vals), rtol=1e-12, atol=1e-9
    )
    da.free()
    if out is not da:
        out.free()
    assert device.allocator.used_bytes == 0


@settings(max_examples=40, deadline=None)
@given(keys=keys_arrays, data=st.data())
def test_sort_then_reduce_consistent_with_bincount(keys, data):
    """The sort-based centroid update: sort_by_key then reduce_by_key equals
    a host-side grouped sum regardless of initial order."""
    vals = data.draw(
        hnp.arrays(np.float64, keys.shape, elements=finite_doubles)
    )
    device = Device()
    dk = device.to_device(keys.copy())
    dv = device.to_device(vals.copy())
    thrust.sort_by_key(dk, dv)
    uk, sums = thrust.reduce_by_key(dk, dv)
    expect_keys = np.unique(keys)
    expect_sums = np.array(
        [vals[keys == u].sum() for u in expect_keys], dtype=np.float64
    )
    assert np.array_equal(uk.data, expect_keys)
    np.testing.assert_allclose(sums.data, expect_sums, rtol=1e-12, atol=1e-9)
    for b in (dk, dv, uk, sums):
        b.free()
    assert device.allocator.used_bytes == 0
