"""Print the sha256 of the CLI output of selected cases as one JSON object.

Usage: python3 perfbench/rehash.py WORKLOAD SEED CASE_ID[,CASE_ID...]

``run.py`` starts this under a different ``PYTHONHASHSEED`` and compares
the digests with its own, to show that output does not depend on string
hashing.
"""

from __future__ import annotations

import hashlib
import json
import sys

from harness import execute, import_cli


def main() -> int:
    workload, seed, ids = sys.argv[1], int(sys.argv[2]), set(sys.argv[3].split(","))
    cli = import_cli()
    import workloads

    parser = cli._make_parser()
    digests = {}
    for case in workloads.build(workload, seed):
        if case.id in ids:
            _, _, text = execute(cli, parser, case.argv)
            digests[case.id] = hashlib.sha256(text.encode()).hexdigest()
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
