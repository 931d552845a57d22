"""A table written to a CSV file as run_scenario writes it, for tests that
pin its bytes."""

from mfsde.cli import write_csv


def write_csv_file(path, header, rows):
    with open(path, "w", newline="") as fh:
        write_csv(fh, header, rows)
