"""Peak memory of the output commands, in fresh interpreters.

``enumerate`` and ``render`` write each class as the class stream yields
it, so their peak RSS does not grow with m.  Each command runs in its
own interpreter with stdout sent to ``/dev/null``, and reports its own
``ru_maxrss`` (KiB on Linux) on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polysym as ps

pytest.importorskip("resource")  # ru_maxrss, read in the child

SRC = str(Path(ps.__file__).resolve().parent.parent)
MB = 1024  # ru_maxrss units per MB

REPORT = (
    "import resource, sys\n"
    "import polysym.cli as cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
)


def peak_kib(*argv: str) -> int:
    """Peak RSS of a fresh interpreter that runs one ``polysym`` command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", REPORT, *argv],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    code, peak = proc.stderr.split()
    assert code == "0"
    return int(peak)


def test_output_commands_hold_flat_memory(tmp_path):
    # Holding every record, or the whole document, in memory reads 19-31
    # and 69 MB for enumerate at m = 30 and 60, and 21 and 63 MB for render
    # at m = 12 and 20, against 16 MB for count.  Streamed, all four read
    # within 1 MB of count, so the bounds sit well above that noise.
    base = peak_kib("count", "--m", "3..4")
    pairs = {
        "enumerate": [("enumerate", "--m", str(m), "--family", "circular") for m in (30, 60)],
        "render": [
            ("render", "--m", str(m), "--family", "circular", "--axes", "--labels",
             "--out", str(tmp_path / f"g{m}.svg"))
            for m in (12, 20)
        ],
    }
    for command, (small, large) in pairs.items():
        low, high = peak_kib(*small), peak_kib(*large)
        assert high - low < 4 * MB, (command, low, high)
        assert high - base < 15 * MB, (command, base, high)
