"""C libraries compiled on first use and cached per user.

library compiles a C text with the C compiler cc into ~/.cache/mpc-autotune,
a directory only its owner may write, under a name keyed by the text, the
flags and the compiler's file, and returns the library's path.  Later loads
find it there without starting a process.  The compiled sensitivity
recurrence (sensitivity.py) and the compiled cost pass (costpass.py) are
built this way.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Sequence

CC = "cc"


def cache_dir() -> Path:
    return Path.home() / ".cache" / "mpc-autotune"


def library(stem: str, text: bytes, flags: Sequence[str], libs: Sequence[str] = ()) -> Path | None:
    """The path of the library compiled from the C text, compiled first if
    the cache does not hold it; None without a compiler or a cache directory
    only this user can write.  A failed build raises
    subprocess.CalledProcessError and leaves nothing in the cache."""
    cc = shutil.which(CC)
    if cc is None:
        return None
    # the compiler is named by its file, not by running `cc --version`: a load
    # from the cache starts no process, whose ru_maxrss would read as the
    # parent's peak (exec records the parent's high-water mark in the child)
    compiler = Path(cc).resolve()
    identity = f"{compiler} {compiler.stat().st_size} {compiler.stat().st_mtime_ns}"
    key = hashlib.sha256(b"\0".join([text, " ".join([*flags, *libs]).encode(), identity.encode()])).hexdigest()
    directory = cache_dir()
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = directory.stat()
    if status.st_uid != os.getuid() or status.st_mode & 0o077:
        return None  # another user could put a library there
    path = directory / f"{stem}-{key[:16]}.so"
    if not path.exists():
        _compile(cc, [*flags, "-x", "c", "-", *libs], text, path)
    return path


def _compile(cc: str, args: list[str], text: bytes, path: Path) -> None:
    """Compile the text, read from standard input, into path, through a
    temporary file and an atomic rename, so that a concurrent reader never
    sees a partial file."""
    fd, partial = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([cc, "-o", partial, *args], input=text, capture_output=True, check=True, timeout=120)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
