import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def oracle_line(re_dd, im_dd, diff, index=0):
    result = {"re_dd": list(re_dd), "im_dd": list(im_dd), "diff": diff,
              "panels": 10}
    return {"group": "small", "index": [0, index], "f": "T*x^2", "g": "1",
            "oracle": {"result": fingerprint.encode(result)}}


class TestOracleShift:
    def test_the_shift_is_that_of_the_dd_value(self):
        # The hi parts move by 2^-52, the lo parts back: the value does not.
        before = oracle_line((1.0, 2.0 ** -60), (0.5, 0.0), 1e-20)
        after = oracle_line((1.0 + 2.0 ** -52, 2.0 ** -60 - 2.0 ** -52),
                            (0.5, 0.0), 1e-20)
        assert fingerprint.oracle_shift(before, after) == (0.0, 1e-20)

    def test_a_shift_below_the_dd_parts_of_one_float(self):
        before = oracle_line((1.0, 2.0 ** -60), (0.5, 0.0), 1e-20)
        after = oracle_line((1.0, 2.0 ** -58), (0.5, -2.0 ** -70), 2e-17)
        shift, diff = fingerprint.oracle_shift(before, after)
        assert shift == pytest.approx(abs(complex(3 * 2.0 ** -60, 2.0 ** -70)),
                                      rel=1e-15)
        assert diff == 2e-17

    def test_no_shift_for_an_unchanged_or_failed_line(self):
        line = oracle_line((1.0, 0.0), (0.5, 0.0), 1e-20)
        failed = {**line, "oracle": {"error": "QuadratureNonConvergence",
                                     "message": "stagnated"}}
        assert fingerprint.oracle_shift(line, dict(line)) is None
        assert fingerprint.oracle_shift(line, failed) is None
        assert fingerprint.oracle_shift(failed, line) is None

    def test_compare_reports_the_largest_shift(self, tmp_path, capsys):
        before = [oracle_line((1.0, 0.0), (0.5, 0.0), 1e-20, index=k)
                  for k in range(3)]
        after = [before[0],
                 oracle_line((1.0, 2.0 ** -80), (0.5, 0.0), 1e-20, index=1),
                 oracle_line((1.0, 2.0 ** -60), (0.5, 0.0), 1e-20, index=2)]
        saved = tmp_path / "before.jsonl"
        saved.write_text("".join(json.dumps(line) + "\n" for line in before))
        assert fingerprint.compare(after, saved) == 1
        out = capsys.readouterr().out.splitlines()
        assert "small oracle im_dd: 0 changed" not in out
        assert "small oracle re_dd: 2 changed" in out
        assert ("oracle values: 2 moved, largest |change| "
                f"{2.0 ** -60:.3e}, 1 by more than their diff") in out
