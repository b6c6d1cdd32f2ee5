import importlib.util
import math
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

# The head of a /proc/stat: the aggregate line, then one line per CPU.
STAT = """cpu  118522 0 7296 403625 241 0 135 3718 12 0
cpu0 59000 0 3600 201000 120 0 70 1850 6 0
cpu1 59522 0 3696 202625 121 0 65 1868 6 0
intr 1234 0 0
"""


class TestCpuTimes:
    def test_aggregate_line_sums_user_through_steal(self):
        # guest (12) is already inside user, so it is not added again.
        assert pairs.cpu_times(STAT) == (3718, 118522 + 7296 + 403625 + 241
                                         + 135 + 3718)

    def test_a_kernel_without_a_steal_column_counts_none(self):
        assert pairs.cpu_times("cpu  10 0 5 85\n") == (0, 100)

    def test_no_cpu_line_raises(self):
        with pytest.raises(ValueError):
            pairs.cpu_times("cpu0 1 2 3 4 5 6 7 8\n\nintr 1\n")

    def test_steal_share_of_runs(self):
        spans = [((100, 1000), (110, 1100)), ((110, 1100), (140, 1200))]
        assert pairs.steal_share(spans) == pytest.approx(40 / 200)
        assert math.isnan(pairs.steal_share([(None, (1, 2))]))
        assert math.isnan(pairs.steal_share([((1, 5), (1, 5))]))
