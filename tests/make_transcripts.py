"""Regenerate ``tests/cli_transcripts.json``, the golden CLI transcripts
that ``tests/test_transcripts.py`` replays.

Run from the repository root: ``PYTHONPATH=src python tests/make_transcripts.py``.
The commands run in order in one empty directory, after ``FILES`` are
written there, so later commands read what earlier ones wrote.  A change
that regenerates the file changes check data: say which entries moved and
why.
"""

import json

from test_transcripts import TRANSCRIPTS, replay

# inputs no command writes: files for one bad input per error class
FILES = {
    "not-json.json": "{not json",
    "arity.json": '{"version": 1, "n": 2, "cards": [2], "prior": [0.5, 0.5], "gen": [0, 1]}',
    "prior-over.json": '{"version": 1, "n": 1, "cards": [2], "prior": [0.6, 0.5], "gen": [0, 1]}',
    "gen-repeat.json": '{"version": 1, "n": 1, "cards": [2], "prior": [0.5, 0.5], "gen": [0, 0]}',
    "unordered.json": '{"version": 1, "n": 2, "cards": [2, 2], "ordered": [true, false], '
                      '"prior": [0.25, 0.25, 0.25, 0.25], "gen": [0, 1, 2, 3]}',
}

SCHEMATICS = ["consistent-not-restrictive", "restrictive-not-consistent", "zigzag-violation"]
SMALL = ["--trials", "200", "--samples", "5000"]
COMMANDS = [
    # help pages: no option is added or removed unnoticed
    *[f"{cmd} --help".lstrip() for cmd in ("", "world", "world gen", "world validate", "world inspect",
                                           "dataset", "score", "calc", "verify")],
    # world
    "world gen --seed 1 --cards 2,2 --out w.json",
    "world gen --seed 2 --cards 2,3,2 --corr 0.3 --out w3.json",
    "world gen --seed 5 --cards 3,2 --corr 0.5",
    "world gen --schematic zigzag-violation --out zz.json",
    "world gen --schematic consistent-not-restrictive",
    "world validate w.json",
    "world validate w3.json",
    "world validate zz.json",
    "world inspect w.json",
    "world inspect w3.json",
    # dataset
    "dataset --world w.json --spec share:1 --seed 2 --n 100 --out d.jsonl",
    "dataset --world rotation --spec label:1 --n 20 --out r.jsonl",
    *[f"dataset --world {name} --spec rank:2 --n 10 --out s.jsonl" for name in SCHEMATICS],
    # score: every format, named worlds and a world file, exact and MC facts, MIG
    *[f"score --world w.json --format {fmt}" for fmt in ("text", "json", "csv")],
    "score --world w.json --bijection 3,2,1,0 --direction both --set 1 --set 1,2",
    "score --world w.json --bijection 1,0,2,3 --set 1 --format json",
    "score --world w3.json --bijection 11,10,9,8,7,6,5,4,3,2,1,0 --kind r --format json",
    *[f"score --world {name} --direction both --with-mig" for name in SCHEMATICS],
    *[f"score --world rotation --samples 2000 --format {fmt}" for fmt in ("text", "json", "csv")],
    "score --world rotation --samples 2000 --with-mig --direction both --format json",
    "score --world rotation --samples 2000 --set 2,3 --facts 'C{1} & R{2,3}' --tol 0.05",
    "score --world w.json --facts 'C{1} & R{2} & D{1,2}' --format json",
    "score --world consistent-not-restrictive --facts 'C{1} & R{1} & D{2}' --direction both",
    "score --world consistent-not-restrictive --mode mc --samples 3000 --seed 4 --facts 'C{1} & R{1}'",
    "score --world w3.json --mode mc --samples 3000 --facts 'D{1} & C{2,3}' --tol 1e-3 --format csv",
    "score --world w.json --set '' --set 2 --kind c --with-mig --format csv",
    "score --world w.json --set '' --mode mc --samples 500",
    # calc
    *[f"calc --n 3 --axioms 'C{{1}} & R{{2}}' --format {fmt}" for fmt in ("text", "json")],
    *[f"calc --n 3 --axioms 'C{{1,2}} & C{{2,3}}' --query 'C{{2}}' --format {fmt}" for fmt in ("text", "json")],
    "calc --n 3 --axioms 'C{1}' --query 'R{1} & C{1}'",
    "calc --n 2 --nuisance --axioms 'Ceta{1} & Ceta{2}' --query 'R{eta}'",
    "calc --n 2 --nuisance --axioms 'Ceta{1} & Ceta{2}' --format json",
    "calc --n 2",
    # verify: each suite alone at small sizes, then all three
    *[f"verify --{suite} {' '.join(SMALL)} --format {fmt}"
      for suite in ("counterexamples", "theorems", "sweep") for fmt in ("text", "json")],
    *[f"verify {' '.join(SMALL)} --format {fmt}" for fmt in ("text", "json")],
    "verify --theorems --support-max 4 --seed 3",
    # one bad input per error class
    "",
    "world",
    "score",
    "score --world w.json --nope",
    "score --world w.json --format xml",
    "score --world w.json --samples 0",
    "score --world w.json --set x",
    "score --world missing.json",
    "score --world not-json.json",
    "world validate arity.json",
    "world inspect prior-over.json",
    "world validate gen-repeat.json",
    "world gen --cards 4097",
    "world gen --schematic zigzag-violation --seed 3",
    "score --world w.json --bijection 0,0,1,2",
    "score --world w.json --set 3",
    "score --world rotation --bijection 0,1",
    "score --world rotation --mode exact",
    "score --world rotation --samples 1 --with-mig",
    "dataset --world w.json --spec share:5 --out d.jsonl",
    "dataset --world unordered.json --spec rank:2 --out d.jsonl",
    "dataset --world w.json --spec share:1 --out .",
    "calc --n 3 --query 'C{'",
    "calc --n 2 --query 'Ceta{1}'",
    "calc --n 40",
    "verify --theorems --support-max 9",
]


def main():
    entries = []
    for line, res in zip(COMMANDS, replay(FILES, COMMANDS)):
        entry = {"command": line, "exit_code": res.exit_code, "stdout": res.stdout.split("\n")}
        if res.stderr:
            entry["stderr"] = res.stderr.split("\n")
        entries.append(entry)
    doc = {"files": FILES, "entries": entries}
    TRANSCRIPTS.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} transcripts to {TRANSCRIPTS}")


if __name__ == "__main__":
    main()
