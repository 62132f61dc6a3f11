"""Read and write a checkpoint file as its parsed lines: the header, then one
line per save."""

import json


def read_lines(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_lines(path, lines) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
