"""Rerun the golden CLI invocations and show what moved against tests/golden.

Runs every entry of tests/test_cli.py's GOLDEN_RUNS with --no-timestamp,
checks its exit code, and prints golden_diff for each golden whose bytes
changed, and the name of each entry that has no golden file yet.  Files are
written only with --write.

    python scripts/regen_goldens.py [--write]

Exits 1 when some exit code differs from the expected one (nothing is
written then), 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from liebeq.cli import main as cli_main  # noqa: E402
from test_cli import GOLDEN, GOLDEN_RUNS, golden_diff  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="write the moved and new goldens")
    args = parser.parse_args(argv)

    moved, new, wrong = {}, [], []
    for name in sorted(GOLDEN_RUNS):
        cli_args, expected = GOLDEN_RUNS[name]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(cli_args + ["--no-timestamp"])
        if code != expected:
            wrong.append(name)
            print(f"{name}: exit code {code}, expected {expected}")
        got = out.getvalue().encode("utf-8")
        path = GOLDEN / f"{name}.json"
        if not path.exists():
            moved[name] = got
            new.append(name)
            print(f"{name}: new, no golden file yet")
        elif got != path.read_bytes():
            moved[name] = got
            print(golden_diff(got, name))
    print(f"{len(GOLDEN_RUNS)} goldens: {len(moved) - len(new)} moved, {len(new)} new, "
          f"{len(wrong)} with a wrong exit code")
    if wrong:
        return 1
    if args.write:
        for name, got in moved.items():
            (GOLDEN / f"{name}.json").write_bytes(got)
        print(f"wrote {len(moved)} goldens")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
