"""The README stays in step with the public API."""

from pathlib import Path

import noether

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in noether.__all__ if f"`{name}`" not in tour]
    assert not missing, f"README library tour misses {missing}"
