import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_checks_pass():
    # the benchmark's own checks bind names of the package (the functions its
    # span recorder wraps, the layers it reports).  They run in a fresh
    # interpreter: this session's test modules hold their own references to
    # those functions, which the recorder's alias check would flag.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
