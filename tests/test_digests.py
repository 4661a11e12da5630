"""Every checked command's output, byte for byte: the digests of `tools/digests.py`.

`tests/data/digests.json` maps a case name to its argv, exit code and the
sha256 of its results file and of stdout.  Each case runs in-process through
the script's `run` with its results under `tmp_path`, and a results file's
manifest is replayed to the same bytes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from spinring.serialize import manifest_path_for

_SPEC = importlib.util.spec_from_file_location(
    "digests", Path(__file__).parent.parent / "tools" / "digests.py"
)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)
DIGESTS = json.loads(digests.DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", DIGESTS)
def test_outputs_keep_their_digests(name, tmp_path):
    case = DIGESTS[name]
    out = tmp_path / "results"
    got = digests.run(case["argv"], out)
    assert {"argv": case["argv"], **got} == case
    if out.exists():
        out.unlink()
        assert digests.run(["replay", "--manifest", str(manifest_path_for(out))], out) == got
