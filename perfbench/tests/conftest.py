import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def kr():
    import kolmoreduce
    import kolmoreduce.cli  # noqa: F401  (the files workload calls kolmoreduce.cli.main)

    return kolmoreduce
