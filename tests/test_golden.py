"""Every request of ``tests/golden.json`` writes the bytes it wrote when
the manifest was recorded: exit code, stdout, stderr and every file
under ``--out`` (see ``record_golden.py``, which also re-records it).

A moved digest fails whatever the environment.  When the numpy version
or platform differs from the recorded one, the failure says so, since a
different numpy may move float bits; the test never skips."""

import json

from record_golden import MANIFEST, REQUESTS, environment, run_entry, seeds


def _manifest():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_covers_every_request():
    recorded = [(e["name"], e["seed"], e["argvs"]) for e in _manifest()["requests"]]
    assert recorded == [
        (name, seed, [list(argv) for argv in argvs])
        for name, argvs in REQUESTS.items() for seed in seeds(name)
    ]


def test_every_digest_is_unchanged():
    manifest = _manifest()
    moved = [
        f"{e['name']} --seed {e['seed']}: expected exit {e['code']} {e['sha256'][:12]}, got "
        + ("argument lists that disagree" if got is None else f"exit {got[0]} {got[1][:12]}")
        for e in manifest["requests"]
        if (got := run_entry(e["argvs"], e["seed"])) != (e["code"], e["sha256"])
    ]
    recorded = {key: manifest[key] for key in environment()}
    note = ""
    if recorded != environment():
        note = (f"\nrecorded under {recorded}, running under {environment()}; "
                "a numpy change may move float bits")
    assert not moved, f"{len(moved)} digests moved:\n" + "\n".join(moved) + note
