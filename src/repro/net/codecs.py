"""Stateless fp16 / int8 bucket quantizers, kept for one isolated drive.

The ring is lossless: it ships raw buckets and nothing in ``src/``
calls this module.  It exists only because the benchmark harness's
``codecs.*`` drive times an encode/decode round trip through these two
functions; it goes when that drive does.

* ``fp16`` — IEEE half-precision cast.
* ``int8`` — per-array symmetric linear quantization: one float scale
  (``max|x| / 127``) per array, values rounded to int8.
"""

from __future__ import annotations

import typing

import numpy as np

from .wire import WireError


class BucketEncoding(typing.NamedTuple):
    """One encoded bucket: shipped arrays + the metadata to invert them."""

    data: "list[np.ndarray]"
    meta: "dict"


def _quantize(codec: str, values: np.ndarray) -> "tuple[np.ndarray, dict]":
    if codec == "fp16":
        return values.astype(np.float16), {"dtype": str(values.dtype)}
    if codec == "int8":
        peak = float(np.max(np.abs(values))) if values.size else 0.0
        scale = peak / 127.0 if peak > 0.0 else 1.0
        shipped = np.clip(np.rint(values / scale), -127, 127).astype(np.int8)
        return shipped, {"dtype": str(values.dtype), "scale": scale}
    raise WireError(f"unknown codec {codec!r}")


def encode_bucket(
    codec: str, views: "typing.Sequence[np.ndarray]"
) -> BucketEncoding:
    """Quantize one bucket's float views with ``codec``."""
    shipped = [_quantize(codec, view) for view in views]
    return BucketEncoding(
        data=[array for array, _ in shipped],
        meta={"name": codec, "arrays": [meta for _, meta in shipped]},
    )


def decode_bucket(
    data: "typing.Sequence[np.ndarray]", meta: dict
) -> "list[np.ndarray]":
    """Invert :func:`encode_bucket`."""
    metas = meta.get("arrays")
    if not isinstance(metas, list) or len(metas) != len(data):
        raise WireError("codec metadata disagrees with the bucket")
    decoded = []
    for array, array_meta in zip(data, metas):
        dtype = np.dtype(array_meta["dtype"])
        values = np.asarray(array).astype(dtype)
        if "scale" in array_meta:
            values *= dtype.type(array_meta["scale"])
        decoded.append(values)
    return decoded
