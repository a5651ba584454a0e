"""Backend registry and ABC contract."""

import pytest

from repro.backend import (DEFAULT_BACKEND, Backend, BackendError,
                           backend_names, get_backend)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert backend_names() == ("fpga_shiftbuffer", "versal_aie")

    def test_none_resolves_the_default_backend(self):
        assert get_backend(None).id == DEFAULT_BACKEND
        assert get_backend().id == "fpga_shiftbuffer"

    def test_unknown_backend_is_a_typed_error(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("tpu_systolic")

    def test_duplicate_registration_rejected(self):
        from repro.backend.base import register_backend

        with pytest.raises(BackendError, match="already registered"):
            register_backend(get_backend("versal_aie"))

    def test_backends_are_backend_instances(self):
        for name in backend_names():
            backend = get_backend(name)
            assert isinstance(backend, Backend)
            assert backend.id == name
            assert backend.title
            assert backend.default_device in backend.device_names()


class TestDeviceResolution:
    def test_each_backend_resolves_its_catalog(self):
        for name in backend_names():
            backend = get_backend(name)
            for device_name in backend.device_names():
                device = backend.resolve_device(device_name)
                assert device is backend.resolve_device(device)

    def test_default_device_used_when_unnamed(self):
        backend = get_backend("versal_aie")
        assert backend.resolve_device().name == "Xilinx Versal VC1902"

    def test_foreign_device_rejected(self):
        with pytest.raises(BackendError):
            get_backend("versal_aie").resolve_device("u280")
        with pytest.raises(BackendError):
            get_backend("fpga_shiftbuffer").resolve_device("vc1902")

