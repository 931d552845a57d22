"""The configs README.md shows parse, and its ladder example gives the figures it quotes."""

import csv
import re
from pathlib import Path

from mfsde.cli import parse_config, run_scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```", README, re.S | re.M)


def test_every_ini_block_parses():
    assert len(INI_BLOCKS) >= 2
    for text in INI_BLOCKS:
        parse_config(text)


def test_ladder_example_gives_the_quoted_defects_and_floor(tmp_path):
    [ladder] = [text for text in INI_BLOCKS if "perturb_g" in text]
    defects = re.search(r"rms defects ([0-9.]+),\s+([0-9.]+)\s+and\s+([0-9.]+)", README)
    floor = re.search(r"`defect_floor=([0-9.]+)`", README)
    assert run_scenario(parse_config(ladder), str(tmp_path)) == 0
    with open(tmp_path / "path_independence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["rms_defect"] for row in rows] == list(defects.groups())
    summary = (tmp_path / "summary.txt").read_text()
    assert f" defect_floor={floor.group(1)} PASS" in summary
