"""The demos run end to end and print what they printed when their digests
were pinned (sha256 of stdout)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


DIGESTS = {
    "01_arrangement_tour.py": "24d600fb6c6ba0a79fcc98c9f695924b7c441b337076d4cac31cdbcb33f35831",
    "02_free_basis.py": "cdfcb1ab710fb115ff8fd132a7d00ecdf4b6695ec338354a1f3e11deeed1601d",
    "03_extension_invariance.py": "788c3fded5a0fec11a2997e2ad314c90212feccf1342446518058c9560ac82a1",
    "04_dual_pair.py": "bda8fc9c30b8189445376a68d639a300fdc61dfc7f071bec7f0815fee2cd1f50",
    "05_dimension_oracle.py": "22c67700b080372138008e8c6dcd411b2c49088d684db683b4e3f4922088e5f5",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, timeout=60, check=False
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS[name]
