"""Byte-identical report streams for fixed command lines.

Each command runs in-process and its stdout sha256 is compared with a
digest recorded before the per-c1 and per-model work in verify-hodge and
the truncated product in series were restructured.  A change that is
meant to alter a stream must re-record its digest here and say why.
"""

import hashlib

import pytest

from test_cli import run_cli

DIGESTS = {
    "verify-hodge --dim 3 --seed 0 --cases 2":
        "922c281bd55ffa2be48bc0a55d88896bebf49884b0c3be001df3f42015440e9e",
    "verify-hodge --dim 4 --seed 0 --cases 1":
        "af8e6036eb124e564f14cebc1f9a8822eca079c8cc13ee338bced9438020847a",
    "series todd --weight 13":
        "c62914f09193a14829d8038b5e1f18d1b32c1bea0151696c9e8599f83c4a027d",
    "series sqrt-todd --weight 13":
        "3d17be82d29cbae1f77c105a1b9672f2251343811f80b643e3e1c2e15e4de133",
    "series mukai --weight 13":
        "7ca0e50adcbb9a17a9f023303a82c283acff70f3c0f5e54bd9a6917a3ae15c96",
    "series ch --weight 16":
        "530f3879b3da34b0908756f13252740aff222ca9db9ffffef428a460bb5e81e2",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stream_digest(command):
    code, out, _ = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
