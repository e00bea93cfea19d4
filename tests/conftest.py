from pathlib import Path

import pytest

from triplify import bundled_mapping, load_csv, parse_mapping, parse_turtle

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def fixture_cases() -> list[Path]:
    return sorted(p for p in FIXTURES.iterdir() if p.is_dir())


def fixture_case(case_dir: Path):
    """A fixture's mapping (the bundled one when it has none) and its tables."""
    mapping_file = case_dir / "mapping.ttl"
    if mapping_file.exists():
        m = parse_mapping(*parse_turtle(mapping_file.read_text(encoding="utf-8")))
    else:
        m = bundled_mapping()
    tables = {
        p.stem: load_csv(p.read_text(encoding="utf-8"), p.stem) for p in case_dir.glob("*.csv")
    }
    return m, tables
