"""Helpers for tests that damage on-disk files on purpose.

Lives in its own (non-collected) module, importable with the tests
directory on ``sys.path`` like ``_cells``.
"""

import json
import struct


def swap_sealed_header(raw: bytes, payload: bytes) -> bytes:
    """Replace the length-prefixed JSON header of a sealed file.

    The header is the first JSON object in the file; the little-endian
    u32 just before it holds its length, which is rewritten to match
    ``payload``.  Everything else (magic, version, body) is kept.
    """
    start = raw.index(b'{"')
    while True:
        (length,) = struct.unpack_from("<I", raw, start - 4)
        try:
            json.loads(raw[start:start + length])
            break
        except ValueError:
            start = raw.index(b'{"', start + 1)
    return (raw[:start - 4] + struct.pack("<I", len(payload)) + payload
            + raw[start + length:])
