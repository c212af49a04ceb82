"""Set-up probe: a fresh interpreter from start to its first op done.

run.py starts this script in a subprocess several times and takes the
median of (monotonic time printed here) - (monotonic time at spawn).  The
span covers interpreter start, ``import minerlab.cli`` (numpy included)
and a one-nonce ``mine`` op, so any backend build or load and the first
work preparation land in it.

    python3 perfbench/setup_probe.py <160 hex header>
"""

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import minerlab.cli as cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["mine", "--header", sys.argv[1], "--target", "1", "--nonce-start", "0",
                   "--nonce-end", "0", "--threads", "1", "--format", "kv"])
if rc != 1:
    sys.exit(f"set-up probe: one-nonce scan exited {rc}, expected 1 (exhausted)")
print(repr(time.monotonic()))
