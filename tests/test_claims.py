"""The paper-claims table in tools/generate_experiments_md.py.

Nothing here simulates: the check runs on stand-in result objects, and
the committed EXPERIMENTS.md is compared with the table row by row, so
an edit to a claim without regenerating the file fails here.  The CI
``experiments-md`` job regenerates the file and diffs it in full.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import tools.generate_experiments_md as gen
from repro.experiments import registry

ROOT = Path(__file__).resolve().parent.parent


def _divergence_bullets():
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## Known divergences", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\* \*\*(.+?)\.\*\*", section, re.MULTILINE))


def test_claim_outside_its_band_is_reported_by_label(capsys):
    claims = (
        gen.Claim("fig6", "inside", "+9.5%", lambda r: r.value,
                  (7.0, 13.0), "{:+.1f}%"),
        gen.Claim("fig6", "too high", "+9.5%", lambda r: r.value + 10,
                  (7.0, 13.0), "{:+.1f}%"),
        gen.Claim("fig10", "wrong casualty", "x264", lambda r: r.name,
                  "x264"),
    )
    results = {
        "fig6": SimpleNamespace(value=9.8),
        "fig10": SimpleNamespace(name="imagick"),
    }
    assert gen.check(results, claims) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "claim violated: fig6: too high: measured +19.8%, accepted (7, 13)",
        "claim violated: fig10: wrong casualty: measured imagick, "
        "accepted = x264",
    ]
    assert gen.check(results, claims[:1]) == 0
    assert capsys.readouterr().err == ""


def test_band_semantics():
    cases = [
        (7.0, (7.0, 13.0), False),        # bands are open intervals
        (7.5, (7.0, 13.0), True),
        (60.1, (60, None), True),
        (-3.0, (None, -3.0), False),
        ((12.0, 17.0), ((11.0, 13.0), (16.0, 18.0)), True),
        ((12.0, 19.0), ((11.0, 13.0), (16.0, 18.0)), False),
        (True, True, True),
        ("imagick", "x264", False),
    ]
    for value, band, holds in cases:
        claim = gen.Claim("fig6", "label", "paper", lambda r: r, band)
        assert claim.holds(value) is holds, (value, band)


def test_every_claim_names_an_experiment_and_divergence_bullet():
    names = set(registry.names())
    bullets = _divergence_bullets()
    for claim in gen.CLAIMS:
        assert claim.experiment in names, claim.label
        if claim.divergence:
            assert claim.divergence in bullets, claim.label
    rendered = [name for s in gen.SECTIONS for name in s.renders]
    assert sorted(rendered) == sorted(names)


def test_committed_experiments_md_has_one_row_per_claim():
    rows = []
    for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines():
        if line.startswith("| ") and line.endswith(" |"):
            cells = line[2:-2].split(" | ")
            if cells[1:2] != ["paper"]:
                rows.append((cells[0], cells[1], cells[3]))
    assert rows == [(c.label, c.paper, c.accepted) for c in gen.CLAIMS]
