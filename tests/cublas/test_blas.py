"""cuBLAS wrapper correctness against dense NumPy references."""

import numpy as np
import pytest

from repro import cublas
from repro.cuda.device import Device
from repro.errors import DeviceArrayError


class TestLevel3:
    def test_gemm_basic(self, device, rng):
        A = device.to_device(rng.random((4, 6)))
        B = device.to_device(rng.random((6, 3)))
        C = cublas.gemm(A, B)
        assert np.allclose(C.data, A.data @ B.data)

    @pytest.mark.parametrize("ta,tb", [(False, False), (True, False),
                                       (False, True), (True, True)])
    def test_gemm_transposes(self, device, rng, ta, tb):
        A = device.to_device(rng.random((6, 4) if ta else (4, 6)))
        B = device.to_device(rng.random((3, 6) if tb else (6, 3)))
        C = cublas.gemm(A, B, transa=ta, transb=tb)
        Aop = A.data.T if ta else A.data
        Bop = B.data.T if tb else B.data
        assert np.allclose(C.data, Aop @ Bop)

    def test_gemm_kmeans_update_form(self, device, rng):
        # S <- S - 2 V C^T, the Algorithm 4 distance completion
        V = device.to_device(rng.random((10, 4)))
        C = device.to_device(rng.random((3, 4)))
        S = device.to_device(rng.random((10, 3)))
        ref = S.data - 2.0 * V.data @ C.data.T
        cublas.gemm(V, C, S, alpha=-2.0, beta=1.0, transb=True)
        assert np.allclose(S.data, ref)

    def test_gemm_inner_dim_mismatch(self, device, rng):
        with pytest.raises(DeviceArrayError):
            cublas.gemm(device.zeros((4, 5)), device.zeros((6, 3)))

    def test_gemm_bad_c_shape(self, device, rng):
        with pytest.raises(DeviceArrayError):
            cublas.gemm(
                device.zeros((4, 5)), device.zeros((5, 3)), device.zeros((4, 4))
            )

    def test_gemm_charges_dense_kernel(self, device, rng):
        A = device.to_device(rng.random((64, 64)))
        t0 = device.elapsed
        cublas.gemm(A, A)
        assert device.elapsed > t0

    def test_cross_device_rejected(self, rng):
        d1, d2 = Device(), Device()
        with pytest.raises(DeviceArrayError):
            cublas.gemm(d1.to_device(rng.random((2, 2))),
                        d2.to_device(rng.random((2, 2))))
