#!/usr/bin/env python3
"""One digest of the files that the benchmark workloads write.

Builds each workload's plan with ``perfbench/workloads.py``'s ``make_plan``
in a temporary directory, runs every call of its items once through
``repkit.cli.main`` in this process, and prints one line per workload: the
number of files the calls wrote, the count of each exit code, and one
sha256 over the relative path and the bytes of each of those files but
``manifest.json`` (which holds wall times and absolute paths). Equal
digests at two commits mean byte-identical outputs:

    PYTHONPATH=src python scripts/output_digest.py --seed 1
"""

import argparse
import collections
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
from workloads import WORKLOADS, make_plan  # noqa: E402

import repkit.cli  # noqa: E402


def _files(root):
    return {os.path.relpath(os.path.join(path, name), root)
            for path, _, names in os.walk(root) for name in names}


def digest(workload, seed):
    """``(file count, {exit code: calls}, sha256 hex digest)`` of the files
    that one run of ``workload``'s items at ``seed`` writes."""
    codes = collections.Counter()
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as root:
        plan = make_plan(workload, root, seed)
        inputs = _files(root)
        with contextlib.redirect_stdout(io.StringIO()):
            for item in plan["items"]:
                for call in item["calls"]:
                    codes[repkit.cli.main(call["argv"])] += 1
        outputs = sorted(rel for rel in _files(root) - inputs
                         if os.path.basename(rel) != "manifest.json")
        for rel in outputs:
            with open(os.path.join(root, rel), "rb") as fh:
                data = fh.read()
            sha.update(rel.replace(os.sep, "/").encode() + b"\0")
            sha.update(len(data).to_bytes(8, "little") + data)
    return len(outputs), dict(sorted(codes.items())), sha.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all)")
    args = ap.parse_args()
    os.environ["REPKIT_LOG"] = "quiet"
    for workload in [args.workload] if args.workload else sorted(WORKLOADS):
        count, codes, hexdigest = digest(workload, args.seed)
        print(f"{workload} seed {args.seed}: {count} files, "
              f"exit codes {codes}, sha256 {hexdigest}")


if __name__ == "__main__":
    main()
