"""The committed objective gate: every fit of ``golden/objectives.json``
(written by ``regenerate_golden.py``) ends at or below its entry's
objective, within the stated tolerance, and on its entry's boundary; a fit
that was refused is refused with the same text."""

import json

from regenerate_golden import ABSOLUTE_FLOOR, GOLDEN, RELATIVE_TOLERANCE, entries


def key(entry: dict) -> tuple:
    return entry["history"], entry["points"], entry["model"]


def test_fits_stay_at_or_below_their_golden_entries():
    golden = json.loads(GOLDEN.read_text())
    live = entries()
    assert [key(entry) for entry in live] == [key(entry) for entry in golden]
    rises, changed = [], []
    truncations_moved = 0
    # Per model: moved objectives, largest relative drop, largest relative rise.
    moves = {}
    for entry, got in zip(golden, live):
        if "error" in entry or "error" in got:
            assert got.get("error") == entry.get("error"), key(entry)
            continue
        if got["boundary"] != entry["boundary"]:
            changed.append((key(entry), entry["boundary"], got["boundary"]))
        truncations_moved += got["truncation"] != entry["truncation"]
        old, new = float.fromhex(entry["objective"]), float.fromhex(got["objective"])
        if new == old:
            continue
        relative = (new - old) / abs(old) if old else float("inf")
        moved, largest_drop, largest_rise = moves.get(entry["model"], (0, 0.0, 0.0))
        moves[entry["model"]] = moved + 1, min(largest_drop, relative), max(largest_rise, relative)
        if new - old > RELATIVE_TOLERANCE * abs(old) + ABSOLUTE_FLOOR:
            rises.append((key(entry), old, new))
    print(
        f"{sum(moved for moved, _, _ in moves.values())} of {len(golden)} objectives moved;"
        f" {truncations_moved} truncations moved"
    )
    for model, (moved, largest_drop, largest_rise) in sorted(moves.items()):
        print(
            f"  {model}: {moved} moved (relative: largest drop {largest_drop:.3g},"
            f" largest rise {largest_rise:.3g})"
        )
    assert not changed, f"boundaries changed: {changed}"
    assert not rises, f"objectives rose above their entries: {rises}"
