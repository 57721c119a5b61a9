#!/usr/bin/env python3
"""Print the ctest ids one build directory registers and another does not.

A change that deletes or renames tests should show exactly which ids
went and which arrived. Configure and build both trees (for example the
parent commit's and the change's), then run:

  tools/test_delta.py BASE_BUILD_DIR NEW_BUILD_DIR

Output: the ids registered only in BASE, then the ids registered only in
NEW, one per line and sorted, each section headed by its count.

Exit codes: 0 ok, 2 when ctest cannot list a directory's tests or the
directory registers none (not configured or not built?).
Stdlib only; no third-party imports.
"""

import argparse
import json
import subprocess
import sys


def test_ids(build_dir):
    """The set of test names ctest registers in `build_dir`."""
    try:
        listing = subprocess.run(
            ["ctest", "--test-dir", build_dir, "--show-only=json-v1"],
            check=True, capture_output=True, text=True).stdout
        tests = json.loads(listing).get("tests", [])
    except (OSError, subprocess.CalledProcessError, ValueError) as err:
        print(f"error: cannot list tests in {build_dir}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if not tests:
        print(f"error: {build_dir} registers no tests "
              "(not configured or not built?)", file=sys.stderr)
        sys.exit(2)
    return {test["name"] for test in tests}


def print_section(title, ids):
    print(f"{title} ({len(ids)}):")
    for test_id in sorted(ids):
        print(f"  {test_id}")


def main():
    parser = argparse.ArgumentParser(
        description="ctest ids registered by one build directory and not "
                    "by the other, in both directions")
    parser.add_argument("base", help="build directory of the base tree")
    parser.add_argument("new", help="build directory of the changed tree")
    args = parser.parse_args()

    base = test_ids(args.base)
    new = test_ids(args.new)
    print_section(f"only in {args.base}", base - new)
    print_section(f"only in {args.new}", new - base)
    print(f"{len(base)} ids in {args.base}, {len(new)} in {args.new}, "
          f"{len(base & new)} in both")


if __name__ == "__main__":
    main()
