"""The import graph: only a sweep's config hash loads hashlib (and with it
OpenSSL's libcrypto), so every other command runs without it, and nothing
loads a process pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import qprim, qprim.cli
added = set(sys.modules) - before
from qprim.search import SearchConfig, config_hash
cfg = SearchConfig(d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=1, n_cap=4000)
print(json.dumps({
    "hash_modules": sorted(added & {"hashlib", "_hashlib"}),
    "pool_modules": sorted(added & {"concurrent.futures", "multiprocessing"}),
    "config_hash": config_hash(cfg),
    "hashlib_after": "_hashlib" in sys.modules,
}))
"""


def test_only_config_hash_loads_hashlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["hash_modules"] == []
    assert got["pool_modules"] == []
    assert got["config_hash"] == "bfe472d48a19d25b"  # tests/test_search.py's LEHMER_CFG: checkpoints resume
    assert got["hashlib_after"]
