"""Exit code and output digest of every checked benchmark job.

    python3 tools/output_digests.py --workload series --seed 1 > series-1.txt

Run from the root of a checkout; decaylab is imported from its src/.  Each
checked job of the seeded stream (perfbench.workloads) runs through
`decaylab.cli.main` in a fresh temporary directory, and one line
`exit-code sha256 argv` is printed per job.  The hash covers every file the
job wrote, name and content, with the temporary directory's path replaced
by a fixed placeholder (headers echo `--out`).  Running this in two
checkouts and comparing the outputs with `cmp` checks that a change keeps
every output byte-identical, exit codes included.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def job_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read().replace(directory.encode(), b"<out>")
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("series", "scatter", "potential"))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from decaylab import cli
    from perfbench import checks, workloads

    blocks = workloads.job_blocks(args.workload, args.seed)
    jobs = [job for _ in range(workloads.CHECKED_BLOCKS[args.workload]) for job in next(blocks)]
    for job in jobs:
        with tempfile.TemporaryDirectory() as tmp:
            argv_job = list(job.argv) + ["--out", checks.output_path(job, tmp)]
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(argv_job)
                except SystemExit as exc:
                    rc = exc.code
            print(rc, job_digest(tmp), " ".join(job.argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
