"""Stream lanes on the simulated timeline."""

from repro.cuda.stream import Stream


class TestStream:
    def test_repr(self, device):
        assert "K20c" in repr(Stream(device))
