"""The stateless bucket quantizers: round-trip bounds and metadata checks."""

import numpy as np
import pytest

from repro.net.codecs import decode_bucket, encode_bucket
from repro.net.wire import WireError


class TestEncodeBucket:
    def test_fp16_round_trip_error_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(4096)
        enc = encode_bucket("fp16", [values])
        assert enc.data[0].dtype == np.float16
        assert enc.data[0].nbytes == values.nbytes // 4
        decoded = decode_bucket(enc.data, enc.meta)[0]
        assert decoded.dtype == np.float64
        # fp16 has ~2^-11 relative precision.
        assert np.max(np.abs(decoded - values)) < 2e-3

    def test_int8_round_trip_error_bounded(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(4096)
        enc = encode_bucket("int8", [values])
        assert enc.data[0].dtype == np.int8
        assert enc.data[0].nbytes == values.nbytes // 8
        decoded = decode_bucket(enc.data, enc.meta)[0]
        peak = float(np.max(np.abs(values)))
        # Symmetric linear quantization: half a step of error.
        assert np.max(np.abs(decoded - values)) <= peak / 127.0

    def test_int8_all_zero_array_survives(self):
        values = np.zeros(64)
        enc = encode_bucket("int8", [values])
        assert np.array_equal(decode_bucket(enc.data, enc.meta)[0], values)

    def test_decode_rejects_mismatched_metadata(self):
        enc = encode_bucket("fp16", [np.ones(8)])
        with pytest.raises(WireError, match="disagrees"):
            decode_bucket(enc.data, {"name": "fp16", "arrays": []})
