"""Atomic writers: text mode bytes, and the text outputs a cut-short write
must leave as they were."""

from pathlib import Path

import pytest

from conftest import write_past_size_limit
from fdcnet.configfile import write_config
from fdcnet.fileio import atomic_writer, write_text
from fdcnet.report import write_report
from fdcnet.trainer import EvalReport, EvalRow, LogRow, write_eval_csv, write_log_csv

TEXT = "a,b\r\nc\nd\re\n"


class TestTextMode:
    @pytest.mark.parametrize("newline", [None, "", "\n", "\r\n"])
    def test_bytes_equal_plain_open(self, tmp_path, newline):
        with open(tmp_path / "plain", "w", newline=newline) as fh:
            fh.write(TEXT)
        with atomic_writer(tmp_path / "atomic", "w", newline=newline) as fh:
            fh.write(TEXT)
        assert (tmp_path / "atomic").read_bytes() == (tmp_path / "plain").read_bytes()

    def test_write_text_equals_path_write_text(self, tmp_path):
        (tmp_path / "plain").write_text(TEXT)
        write_text(tmp_path / "atomic", TEXT)
        assert (tmp_path / "atomic").read_bytes() == (tmp_path / "plain").read_bytes()

    def test_error_keeps_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_writer(path, "w") as fh:
                fh.write("new")
                raise RuntimeError("stop")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]


class TestDirectories:
    def test_write_makes_missing_directories(self, tmp_path):
        write_text(tmp_path / "a" / "b" / "f", "x")
        assert (tmp_path / "a" / "b" / "f").read_text() == "x"

    def test_error_removes_the_directories_it_made(self, tmp_path):
        (tmp_path / "kept").mkdir()
        with pytest.raises(RuntimeError):
            with atomic_writer(tmp_path / "kept" / "a" / "b" / "f") as fh:
                assert (tmp_path / "kept" / "a" / "b").is_dir()
                fh.write(b"new")
                raise RuntimeError("stop")
        assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_error_keeps_a_file_another_writer_put_there(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_writer(tmp_path / "a" / "f"):
                write_text(tmp_path / "a" / "g", "other")
                raise RuntimeError("stop")
        assert list((tmp_path / "a").iterdir()) == [tmp_path / "a" / "g"]

    def test_a_directory_another_writer_makes_meanwhile_is_used_and_kept(self, tmp_path, monkeypatch):
        (tmp_path / "a").mkdir()
        is_dir = Path.is_dir
        # "a" appears between each writer's check and its mkdir
        monkeypatch.setattr(Path, "is_dir", lambda p: p.name != "a" and is_dir(p))
        with pytest.raises(RuntimeError):
            with atomic_writer(tmp_path / "a" / "f"):
                raise RuntimeError("stop")
        assert list(tmp_path.iterdir()) == [tmp_path / "a"]
        write_text(tmp_path / "a" / "f", "x")
        assert (tmp_path / "a" / "f").read_text() == "x"


def _report(n: int) -> EvalReport:
    rows = [EvalRow(float(i), 1.0, 80.0, 0.5, 0.625) for i in range(n)]
    return EvalReport(grid=[float(i) for i in range(n)], rows=rows, average=rows[0])


# each child writes far more than the 4096-byte limit to the file the test
# made first
CUT_SHORT = {
    "training_log.csv": (
        lambda p: write_log_csv(p, [LogRow(0, 3.0, 1.0, 0.5, 0.5, 0.5, 0.5)]),
        "from fdcnet.trainer import LogRow, write_log_csv\n"
        "write_log_csv(PATH, [LogRow(i, 3.0, 1.0, 0.5, 0.5, 0.5, 0.5) for i in range(2000)])\n",
    ),
    "eval_test.csv": (
        lambda p: write_eval_csv(p, _report(2)),
        "from fdcnet.trainer import write_eval_csv\n"
        "write_eval_csv(PATH, REPORT)\n",
    ),
    "run_config.txt": (
        lambda p: write_config(p, {"train": {"seed": 0}}),
        "from fdcnet.configfile import write_config\n"
        "write_config(PATH, {'train': {f'key{i}': i for i in range(2000)}})\n",
    ),
    "summary.txt": (
        lambda p: write_report(p.parent, [("model", _report(2))]),
        "from pathlib import Path\n"
        "from fdcnet.report import write_report\n"
        "write_report(Path(PATH).parent, [('model', REPORT)])\n",
    ),
}


@pytest.mark.parametrize("name", sorted(CUT_SHORT))
def test_interrupted_text_write_keeps_existing_file(tmp_path, name):
    first, child = CUT_SHORT[name]
    path = tmp_path / name
    first(path)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    code = (
        "import sys\n"
        "from fdcnet.trainer import EvalReport, EvalRow\n"
        "rows = [EvalRow(float(i), 1.0, 80.0, 0.5, 0.625) for i in range(2000)]\n"
        "REPORT = EvalReport(grid=[float(i) for i in range(2000)], rows=rows, average=rows[0])\n"
        f"PATH = {str(path)!r}\n"
        "try:\n"
        + "".join("    " + line + "\n" for line in child.splitlines())
        + "except OSError:\n"
        "    sys.exit(3)\n"
    )
    assert write_past_size_limit(code, 4096) == 3
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
