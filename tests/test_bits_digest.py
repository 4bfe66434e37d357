"""The same-bits gate: tools/bits_digest.py against its recorded output.

tests/data/bits_digest.txt is the digest's output at the last commit that
moved the walk's result bits, headed by the numpy and scipy versions that
made it.  A change that keeps every bit prints the same lines.  A change
that moves bits on purpose re-records the file in the same commit
(``python3 tools/bits_digest.py > tests/data/bits_digest.txt``) and
declares the move.  On other numpy or scipy versions the last bits may
differ for reasons outside the repository, so the test fails and says so
rather than compare them.
"""

import pathlib
import subprocess
import sys

import numpy as np
import scipy

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_RECORD = _ROOT / "tests" / "data" / "bits_digest.txt"


def test_bits_digest_matches_record():
    want = _RECORD.read_text(encoding="utf-8").splitlines()
    here = f"# numpy {np.__version__} scipy {scipy.__version__}"
    assert want[0] == here, (
        f"{_RECORD.name} was recorded with {want[0][2:]!r}, this is {here[2:]!r}: "
        "compare the digest at the parent commit by hand, or re-record the file "
        "on these versions and declare it")
    out = subprocess.run([sys.executable, str(_ROOT / "tools" / "bits_digest.py")],
                         cwd=_ROOT, capture_output=True, text=True, check=True)
    got = out.stdout.splitlines()
    for i, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"line {i} differs:\n  recorded: {w}\n  now:      {g}"
    assert len(got) == len(want), f"{len(got)} lines printed, {len(want)} recorded"
