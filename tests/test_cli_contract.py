"""The CLI's process contract: every row of .github/cli_contract.py's table
not marked ci_only, one test per row, run and judged as the script does."""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_contract",
                                               ROOT / ".github" / "cli_contract.py")
contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract)

# (index in the table, the row's verdict-line name) of each fast row
ROWS = [(i, contract.shown(case, "data"))
        for i, case in enumerate(contract.cases(lambda name: os.path.join("data", name)))
        if not case.ci_only]


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    return contract.write_files(str(tmp_path_factory.mktemp("data")))


@pytest.mark.parametrize("index", [i for i, _ in ROWS], ids=[name for _, name in ROWS])
def test_a_fast_row_of_the_cli_contract_holds(table, index, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    case = table[index]
    code, out, err, elapsed = contract.run(case)
    assert contract.failure(case, code, out, err, elapsed) is None, (out[:300], err[-500:])


def test_the_parse_rows_are_fast_rows():
    assert {"normalize 'x [y #'", "normalize 'x^3000000'",
            "normalize '[x [x ... x]]', 250 deep"} <= {name for _, name in ROWS}
