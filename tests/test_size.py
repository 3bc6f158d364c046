import subprocess
import sys

from conftest import ROOT

SIZE = ROOT / "tools" / "size.py"


def run_size(*args):
    done = subprocess.run([sys.executable, str(SIZE), *map(str, args)], capture_output=True,
                          text=True, check=True)
    return {row.split()[0]: row.split()[1:] for row in done.stdout.splitlines()[1:]}


def test_a_module_counts_its_non_blank_lines():
    module = ROOT / "src" / "nmrqc" / "experiments.py"
    direct = len([line for line in module.read_text().split("\n") if line.strip()])
    rows = run_size()
    assert int(rows["experiments.py"][0]) == direct
    assert int(rows["total"][0]) == sum(int(lines) for name, (lines, _) in rows.items()
                                        if name != "total")


def test_it_reads_a_tree_as_text(tmp_path):
    # nothing of the tree is imported or cached: a module that would raise on import counts
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "boom.py").write_text('\n"""doc"""\n\n   \nraise SystemExit(3)\n')
    (tmp_path / "top.py").write_text("x = 1\n")
    rows = run_size(tmp_path)
    assert rows["pkg/boom.py"][0] == "2" and rows["top.py"][0] == "1"
    assert float(rows["pkg/boom.py"][1]) > 0
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["boom.py", "top.py"]
