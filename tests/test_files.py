import errno

import pytest

from dxtraj.files import check_writable


def test_check_writable_accepts_a_new_or_existing_file(tmp_path):
    check_writable(tmp_path / "new.txt")
    (tmp_path / "old.txt").write_text("x")
    check_writable(tmp_path / "old.txt")


def test_check_writable_accepts_a_bare_file_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_writable("out.json")


@pytest.mark.parametrize("path, code", [
    ("missing/out.json", errno.ENOENT),
    ("file.txt/out.json", errno.ENOTDIR),
    ("dir", errno.EISDIR),
])
def test_check_writable_names_the_path_it_rejects(tmp_path, path, code):
    (tmp_path / "file.txt").write_text("x")
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError) as info:
        check_writable(tmp_path / path)
    assert info.value.errno == code
    assert info.value.filename == str(tmp_path / path)



def test_check_writable_skips_none_and_names_the_first_bad_path(tmp_path):
    check_writable(None, tmp_path / "a.txt", None)
    bad, worse = tmp_path / "missing" / "b.txt", tmp_path / "gone" / "c.txt"
    with pytest.raises(OSError) as info:
        check_writable(tmp_path / "a.txt", None, bad, worse)
    assert info.value.filename == str(bad)
