"""The package stays within its source-line budget: the same behaviour from less code."""

from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "sstac"
BUDGET = 2000  # lines in src/sstac/*.py


def test_package_fits_the_line_budget():
    counts = {path.name: len(path.read_text().splitlines()) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:5d} {name}")
    total = sum(counts.values())
    print(f"{total:5d} total (budget {BUDGET})")
    assert total <= BUDGET, f"src/sstac has {total} lines, over the budget of {BUDGET}"
