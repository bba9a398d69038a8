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

    python3 tools/output_digests.py --workload series --seed 1 --keep DIR

also saves each job's files, with the path masked the same way, under
DIR/<index>/ and the exit codes and argv lists of all jobs in DIR/jobs.json,
for tools/output_drift.py to compare two checkouts whose outputs may differ
in the last digits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def job_files(directory: str) -> dict:
    """{name: content} of the files a job wrote, its directory masked."""
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read().replace(directory.encode(), b"<out>")
    return files


def job_digest(files: dict) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def keep_files(files: dict, directory: str) -> None:
    os.makedirs(directory)
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("series", "scatter", "potential"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--keep", metavar="DIR", help="save every job's files under DIR/<index>/")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from decaylab import cli
    from perfbench import checks, workloads

    blocks = workloads.job_blocks(args.workload, args.seed)
    jobs = [job for _ in range(workloads.CHECKED_BLOCKS[args.workload]) for job in next(blocks)]
    kept = []
    for index, job in enumerate(jobs):
        with tempfile.TemporaryDirectory() as tmp:
            argv_job = list(job.argv) + ["--out", checks.output_path(job, tmp)]
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(argv_job)
                except SystemExit as exc:
                    rc = exc.code
            files = job_files(tmp)
        print(rc, job_digest(files), " ".join(job.argv), flush=True)
        if args.keep:
            keep_files(files, os.path.join(args.keep, str(index)))
            kept.append({"exit": rc, "argv": list(job.argv)})
    if args.keep:
        with open(os.path.join(args.keep, "jobs.json"), "w") as fh:
            json.dump(kept, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
