"""The import graph: no command loads hashlib (and with it OpenSSL's
libcrypto), a sweep's config hash included, and nothing loads a process
pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import qprim, qprim.cli
added = set(sys.modules) - before
from qprim.search import SearchConfig, config_hash
cfg = SearchConfig(d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=1, n_cap=4000)
digest = config_hash(cfg)
print(json.dumps({
    "pool_modules": sorted(added & {"concurrent.futures", "multiprocessing"}),
    "config_hash": digest,
    "hash_modules": sorted(set(sys.modules) & {"hashlib", "_hashlib"}),
}))
"""

# a tiny `qprim search` in one process, then the shared objects it has mapped
SEARCH_MAPS = """
import json, sys
from qprim.cli import main
code = main(sys.argv[1:])
with open("/proc/self/maps") as maps:
    print(json.dumps({"code": code, "maps": maps.read().splitlines()}))
"""


def run_python(code: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True).stdout


def test_nothing_loads_hashlib_even_after_config_hash():
    got = json.loads(run_python(PROBE))
    assert got["pool_modules"] == []
    assert got["config_hash"] == "bfe472d48a19d25b"  # tests/test_search.py's LEHMER_CFG: checkpoints resume
    assert got["hash_modules"] == []


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_search_maps_no_libcrypto(tmp_path):
    argv = ["search", "--d", "163", "--d1", "163", "--alpha", "1", "--g-base", "326", "--k-hi", "2", "--n-cap", "200"]
    out = run_python(SEARCH_MAPS, *argv, "--checkpoint", str(tmp_path / "sweep.jsonl"))
    got = json.loads(out.splitlines()[-1])
    assert got["code"] == 0
    assert (tmp_path / "sweep.jsonl").read_text()  # the sweep hashed its config for a checkpoint line
    assert any("python" in line for line in got["maps"])
    assert [line for line in got["maps"] if "libcrypto" in line] == []
