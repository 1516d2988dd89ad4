"""Helpers for tests that feed the model and checkpoint readers a
container whose checksum is valid but whose header is not."""

import json
import zlib


def with_header(blob, edit):
    """``blob`` with ``edit`` applied to its JSON header and the checksum
    recomputed, so only the header check can reject it."""
    head_len = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8:8 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    body = blob[:4] + len(head).to_bytes(4, "little") + head + blob[8 + head_len:-4]
    return body + zlib.crc32(body).to_bytes(4, "little")
