"""The recognizers' answers on the fixed seeded input set of `tools/answer_digest.py`.

A refactor that keeps every exact answer keeps these digests; a change to
them is a change of answers and must come with its reason.  One digest per
recognizer names the one whose answers moved, the `bases` digest covers
the reference evaluator `expr_to_bases`, the `parse` digest covers
`parse_matrix`'s values, dtypes and error messages, the `product`
digest covers `one_product` and `two_product`, the `cli-matroid`
digest covers what `prodmat recognize matroid` prints, the
`minimizer` digest covers `minimize_symmetric` over f, and the
`near-miss` digest covers the matroid recognizer on multi-flip near-misses.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "answer_digest.py"

WANT = [
    "9a9205c3e550f13be560d90caac825f7e67bb988a7e4e979e28c50fee6719bb0  1p",
    "2e8e276b6d2e3faac966fb9ec1854f0f0f2c4b989bfd0ad5bdfda162d679abe6  factor",
    "e8d36bc88714bf022be5fa7df0afb90ef88ceb071b6718d38f74923ae9361e0a  2p",
    "1ee13ae5fc63357b4e45631f0c64e2c44e3fb7135a42e92c472f490295e701da  matroid",
    "982650c4a94a14c88e44bdb4e9237b82291b66aed9ac626b4d43f656051e19b4  1080 inputs",
    "d92466987d5dbaa0082f52be7c09b77c7bfe82de73475d2b5fd116df20da0798  build, 240 expressions",
    "58adfcc03e5afa5b453a491f9347ded92a9510013c75f0fc2810510a029235ff  bases, 240 expressions",
    "3851a0deeb062ce00035adffd7f4ab04580e20cd9e05847b6ea8eb35a02fcdaa  exact, 300 inputs",
    "b7414f4a4c67dc968893f57de8791d2a786f68034ae3cea0e487162ce5cf0d90  parse, 3000 texts",
    "82530d9f5027e5b58bd8209dadce74b9272f62ad2e68ec53e693324f18f1ea7a  product, 596 products",
    "ff2f2aca9eb78c118ea5119c2845342e1bb6309db8d0a37c8d314512765c2252  cli-matroid, 80 slacks",
    "5e3e8c3f86415ec101b2fca05a53b869315cc3dad0be7fc3ee30a6161e8040e8  minimizer, 700 inputs",
    "2fa3bff9671a29e484dcac4db6b2d3497bc924ddc2500b7e9180035782a1a456  near-miss, 3000 inputs",
    "0 answers fail re-expansion",
    "0 inputs differ after write_matrix and parse_matrix",
]


def test_answer_digest_is_unchanged():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in WANT:
        assert line in lines, (line, done.stdout)
