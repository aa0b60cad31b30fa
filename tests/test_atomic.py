import os

from txf.atomic import write_atomically


def test_write_through_a_symlink_replaces_the_file_it_names(tmp_path):
    (tmp_path / "target.txt").write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to("target.txt")
    write_atomically(link, lambda fh: fh.write("new\n"))
    assert link.is_symlink()
    assert (tmp_path / "target.txt").read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_write_to_a_pipe_goes_into_the_pipe(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # A non-blocking reader lets the writer open the pipe without a thread.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_atomically(fifo, lambda fh: fh.write("flags\n"))
        assert os.read(reader, 100) == b"flags\n"
    finally:
        os.close(reader)
    assert not fifo.is_file()
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]
