from pathlib import Path

from src_lines import split

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "circmds"


def test_the_four_kinds_sum_to_each_files_line_count():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        source = path.read_text()
        assert sum(split(source).values()) == source.count("\n") == len(source.splitlines()), path


def test_a_blank_line_inside_a_docstring_is_a_docstring_line():
    source = ('"""One.\n'
              '\n'
              'Two."""\n'
              '\n'
              '# a comment\n'
              'x = """a\n'
              '\n'
              'b"""  # code with a comment\n'
              '\n'
              'def f():\n'
              '    """Doc."""\n'
              '    return x\n')
    assert split(source) == {"code": 5, "docstring": 4, "comment": 1, "blank": 2}
