"""Every run of the golden CLI corpus gives the recorded bytes: exit code,
stdout, stderr and each output file.  See ``golden_runs.py`` for the run set
and for how to regenerate the corpus after an intended change."""
import golden_runs


def test_golden_corpus_is_byte_identical(tmp_path):
    problems = golden_runs.differences(golden_runs.load(), golden_runs.run_all(tmp_path))
    assert not problems, "\n".join(problems)


def test_golden_corpus_reports_the_first_differing_line():
    expected = {"run": {"exit": b"0\n", "out.csv": b"t,A\n0.0,1.0\n1.0,2.0\n"}}
    got = {"run": {"exit": b"0\n", "out.csv": b"t,A\n0.0,1.0\n1.0,2.0000000000000004\n"}, "new": {}}
    assert golden_runs.differences(expected, got) == [
        "new: run but not in the corpus",
        "run: out.csv line 3: expected '1.0,2.0', got '1.0,2.0000000000000004'"
        " (equal to 12 digits: the platform's pow may differ in the last ones)",
    ]
