"""Per-block compression for trace-file format v3.

The paper's premise -- post-mortem trace analysis beats interactive
debugging *at scale* -- runs into the wall every trace-based tool hits
(MAD, the tracer-driver work): trace volume.  A v3 block is already
compact (fixed-width columns + an interned side table), but columns of
a message-passing trace are extremely regular -- monotone times, small
integer ranges, repeating proc/kind cycles -- which makes them very
compressible.  This module puts a general-purpose codec *behind* the
existing per-block ``encoding`` tag so compression composes with every
other v3 mechanism (index footer, indexed block decode, footerless
linear walk) and never changes the decoded bytes:

* ``"columnar"``        -- a raw ``RTB3`` block, byte-identical to what
  pre-compression writers produced (the default; old readers keep
  working on files written without compression);
* ``"columnar+zlib"``   -- the block bytes deflated with stdlib zlib,
  always available;
* ``"columnar+zstd"``   -- zstandard when the ``zstandard`` package is
  importable (preferred by ``codec="auto"``), with zlib as the
  documented fallback when it is not.

On disk a compressed block is framed so the footerless linear walk
stays self-delimiting::

    +----------------------------------------------------------+
    | "RTBZ" | codec u8 | raw_nbytes u64 | comp_nbytes u64     |
    +----------------------------------------------------------+
    | comp_nbytes bytes that decompress to one raw RTB3 block  |
    +----------------------------------------------------------+

``codec`` is a registry code (1 = zlib, 2 = zstd); an unknown code
raises a clear :class:`~repro.trace.columnar.ColumnDecodeError` instead
of feeding garbage to the column decoder.  Decompression yields a plain
``bytes`` buffer that the zero-copy numpy decode path consumes exactly
as it consumes the mmap, so everything downstream of
:func:`~repro.trace.columnar.decode_block` is unchanged.

Setting the environment variable ``REPRO_NO_ZSTD`` (to any non-empty
value) makes zstd report unavailable even when the package is
installed -- the CI lever proving the zlib fallback path.
"""

from __future__ import annotations

import functools
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .columnar import ColumnDecodeError

#: magic prefix of a compressed-block frame (vs ``RTB3`` raw blocks)
COMPRESSED_MAGIC = b"RTBZ"
#: frame header: magic, codec code, raw nbytes, compressed nbytes
COMPRESSED_HEADER = struct.Struct("<4sBQQ")

#: env var forcing the zstd codec to report unavailable (CI fallback leg)
NO_ZSTD_ENV = "REPRO_NO_ZSTD"

#: zlib level used by the writer: level 1 keeps compression >2x on
#: columnar trace data while staying ~3x faster than the default level,
#: which matters when a flush sits on the recording path.
ZLIB_LEVEL = 1


@dataclass(frozen=True)
class Codec:
    """One registered block codec."""

    name: str
    code: int
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes, int], bytes]  # (payload, raw_nbytes)
    available: Callable[[], bool]

    @property
    def encoding(self) -> str:
        """The footer ``encoding`` tag for blocks this codec wrote."""
        return f"columnar+{self.name}"


@functools.cache
def _import_zstd():
    """``zstandard``, or None; tried once per process, because a failed
    import rescans ``sys.path`` and every writer asks."""
    try:
        import zstandard
    except ImportError:
        return None
    return zstandard


def _zstd_module():
    if os.environ.get(NO_ZSTD_ENV):
        return None
    return _import_zstd()


def _zstd_compress(data: bytes) -> bytes:
    zstandard = _zstd_module()
    if zstandard is None:  # pragma: no cover - guarded by resolve_codec
        raise RuntimeError("zstandard is not available")
    return zstandard.ZstdCompressor().compress(data)


def _zstd_decompress(payload: bytes, raw_nbytes: int) -> bytes:
    zstandard = _zstd_module()
    if zstandard is None:
        raise ColumnDecodeError(
            "block is zstd-compressed but the 'zstandard' package is not "
            "importable (or REPRO_NO_ZSTD is set); install zstandard or "
            "convert the file with --compress zlib on a machine that has it"
        )
    return zstandard.ZstdDecompressor().decompress(
        payload, max_output_size=raw_nbytes
    )


ZLIB_CODEC = Codec(
    name="zlib",
    code=1,
    compress=lambda data: zlib.compress(data, ZLIB_LEVEL),
    decompress=lambda payload, raw_nbytes: zlib.decompress(payload),
    available=lambda: True,
)

ZSTD_CODEC = Codec(
    name="zstd",
    code=2,
    compress=_zstd_compress,
    decompress=_zstd_decompress,
    available=lambda: _zstd_module() is not None,
)

#: name -> codec, the writer-side registry
CODECS: dict[str, Codec] = {c.name: c for c in (ZLIB_CODEC, ZSTD_CODEC)}
#: frame code -> codec, the reader-side registry
CODECS_BY_CODE: dict[int, Codec] = {c.code: c for c in CODECS.values()}
#: footer encoding tag -> codec
CODECS_BY_ENCODING: dict[str, Codec] = {
    c.encoding: c for c in CODECS.values()
}

#: every encoding tag a current reader understands
KNOWN_ENCODINGS = frozenset(
    {"jsonl", "columnar"} | set(CODECS_BY_ENCODING)
)


def default_codec() -> Codec:
    """The best available codec: zstd when importable, else zlib."""
    return ZSTD_CODEC if ZSTD_CODEC.available() else ZLIB_CODEC


def resolve_codec(
    spec: Union[None, bool, str, Codec],
) -> Optional[Codec]:
    """Writer-side codec selection.

    ``None``/``False``/``"none"`` -> no compression; ``True``/``"auto"``
    -> :func:`default_codec` (zstd with zlib fallback); a codec name
    selects it explicitly and raises :class:`LookupError` when the
    backing library is missing (an explicit ask must not silently
    degrade).
    """
    if spec is None or spec is False or spec == "none":
        return None
    if spec is True or spec == "auto":
        return default_codec()
    if isinstance(spec, Codec):
        codec = spec
    else:
        try:
            codec = CODECS[spec]
        except (KeyError, TypeError):
            raise LookupError(
                f"unknown compression {spec!r}; expected one of "
                f"{sorted(CODECS)} (or 'auto'/'none')"
            ) from None
    if not codec.available():
        raise LookupError(
            f"compression {codec.name!r} is not available in this "
            "environment (package not installed, or disabled via "
            f"{NO_ZSTD_ENV}); use 'zlib' or 'auto'"
        )
    return codec


def compress_frame(raw: bytes, codec: Codec) -> bytes:
    """One raw RTB3 block -> one self-delimiting compressed frame."""
    payload = codec.compress(raw)
    header = COMPRESSED_HEADER.pack(
        COMPRESSED_MAGIC, codec.code, len(raw), len(payload)
    )
    return header + payload


def is_compressed_at(buf, offset: int) -> bool:
    """Whether ``buf[offset:]`` starts a compressed-block frame."""
    return bytes(buf[offset : offset + 4]) == COMPRESSED_MAGIC


def decompress_frame(buf, offset: int) -> tuple[bytes, int, int]:
    """Decode the compressed frame at ``offset``.

    Returns ``(raw block bytes, frame nbytes, raw nbytes)``.  Raises
    :class:`ColumnDecodeError` on truncation, an unknown codec code, or
    payload damage -- the same error family as the raw block decoder,
    so tolerant readers treat a torn compressed flush exactly like a
    torn raw one (the block-aligned prefix stays readable).
    """
    if offset + COMPRESSED_HEADER.size > len(buf):
        raise ColumnDecodeError("truncated compressed-block header")
    magic, code, raw_nbytes, comp_nbytes = COMPRESSED_HEADER.unpack_from(
        buf, offset
    )
    if magic != COMPRESSED_MAGIC:  # pragma: no cover - caller checks magic
        raise ColumnDecodeError(f"bad compressed-block magic {magic!r}")
    codec = CODECS_BY_CODE.get(code)
    if codec is None:
        raise ColumnDecodeError(
            f"unknown block-compression codec code {code}; this file was "
            "written by a newer version of the format"
        )
    start = offset + COMPRESSED_HEADER.size
    if start + comp_nbytes > len(buf):
        raise ColumnDecodeError("truncated compressed-block payload")
    payload = bytes(buf[start : start + comp_nbytes])
    try:
        raw = codec.decompress(payload, raw_nbytes)
    except ColumnDecodeError:
        raise
    except Exception as exc:
        raise ColumnDecodeError(
            f"damaged {codec.name}-compressed block: {exc}"
        ) from exc
    if len(raw) != raw_nbytes:
        raise ColumnDecodeError(
            f"compressed block decompressed to {len(raw)} bytes, "
            f"header promised {raw_nbytes}"
        )
    return raw, COMPRESSED_HEADER.size + comp_nbytes, raw_nbytes


__all__ = [
    "CODECS",
    "CODECS_BY_CODE",
    "CODECS_BY_ENCODING",
    "COMPRESSED_HEADER",
    "COMPRESSED_MAGIC",
    "Codec",
    "KNOWN_ENCODINGS",
    "NO_ZSTD_ENV",
    "ZLIB_CODEC",
    "ZLIB_LEVEL",
    "ZSTD_CODEC",
    "compress_frame",
    "decompress_frame",
    "default_codec",
    "is_compressed_at",
    "resolve_codec",
]
