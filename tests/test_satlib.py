"""SATLIB benchmark files (uf20-91 and kin) close with a "%" line and a lone
"0" after the declared clauses; the parser ends the clause data there."""
import json

import pytest

from qverify.cli import main
from qverify.cnf import CnfError, parse_dimacs

# the layout of a SATLIB uf20 file: comment block, a header with doubled and
# trailing blanks, clauses with leading blanks, then the "%" / "0" trailer
UF_STYLE = """\
c This Formular is generated by mcnf
c
c    horn? no
c    forced? no
c    mixed sat? no
c    clause length = 3
c
p cnf 8  6
 1 -5 4 0
-1 5 3 0
 2 -8 6 0
-3 7 -2 0
 8 -6 -4 0
-7 1 5 0
%
0

"""


def test_satlib_trailer_ends_the_clause_data():
    formula = parse_dimacs(UF_STYLE)
    assert formula.num_variables == 8
    assert len(formula.clauses) == 6
    assert [lit.to_int() for lit in formula.clauses[-1].literals] == [-7, 1, 5]


def test_satlib_reproducer_parses():
    formula = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n")
    assert len(formula.clauses) == 2


def test_percent_line_inside_the_clauses_stays_a_comment():
    # before the declared clauses are complete a "%" line is chatter
    assert parse_dimacs("p cnf 2 2\n1 0\n% chatter\n2 0\n").clauses[1].width == 1
    # and a clause still open at the "%" keeps reading past it
    assert parse_dimacs("p cnf 2 1\n1\n%\n2 0\n").clauses[0].width == 2
    # so a trailer before the declared count is reached reads as an empty clause
    with pytest.raises(CnfError, match="empty clause"):
        parse_dimacs("p cnf 3 3\n1 0\n2 0\n%\n0\n")


def test_satlib_file_through_the_cli(tmp_path, capsys):
    path = tmp_path / "uf8-06.cnf"
    path.write_text(UF_STYLE)
    assert main(["verify", "--dimacs", str(path), "--solver", "brute"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert parse_dimacs(UF_STYLE).evaluate(int(payload["witness"], 2))
    path.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n")
    assert main(["verify", "--dimacs", str(path)]) == 1
    capsys.readouterr()
    path.write_text("p cnf 1 2\n1 0\n-1 0\n%\n0\n")
    assert main(["verify", "--dimacs", str(path)]) == 0
    capsys.readouterr()
