"""Per-job drift between the kept outputs of two checkouts.

    python3 tools/output_digests.py --workload series --seed 1 --keep A   # parent
    python3 tools/output_digests.py --workload series --seed 1 --keep B   # change
    python3 tools/output_drift.py A B

For a change whose outputs may differ in the last digits, where `cmp` is too
strict.  Per job it prints the job index, whether the exit codes match,
whether the non-numeric text matches (every file, every number masked, file
names included), and the largest numeric change in units of the job's
tolerance: |new - old| / max(abs_tol, rel_tol * |old|), with the tolerances
taken from the job's --abs-tol/--rel-tol (the CLI's 1e-9 when omitted).
The fit parameters of a header (`# fit_residual = ...`, `fit_amplitude`,
`fit_rate`) are fits to values that carry their own errors, so their
largest change ("fit") is reported apart from the values' ("drift").
Numbers are compared in order; when the text differs the drift is not
computed ("-").  The last line summarises all jobs, with each maximum.
Exits 1 if any exit code or text differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])|\b(?:nan|inf)\b")
FIT = re.compile(rb"^# fit_\w+ = ")
DEFAULT_TOL = 1e-9


def split_numbers(data: bytes):
    """(text with every number replaced by '#', the numbers as strings)."""
    return NUMBER.sub(b"#", data), NUMBER.findall(data)


def tolerances(argv):
    tol = {"--abs-tol": DEFAULT_TOL, "--rel-tol": DEFAULT_TOL}
    for flag, value in zip(argv, argv[1:]):
        if flag in tol:
            tol[flag] = float(value)
    return tol["--abs-tol"], tol["--rel-tol"]


def read_job(directory: str) -> dict:
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


def job_drift(old: dict, new: dict, abs_tol: float, rel_tol: float):
    """(text matches, largest change of the values and of the fit
    parameters in tolerance units, each None when the text differs)."""
    if sorted(old) != sorted(new):
        return False, None, None
    worst = {False: 0.0, True: 0.0}  # by whether the line is a fit parameter
    for name in old:
        if split_numbers(old[name])[0] != split_numbers(new[name])[0]:
            return False, None, None
        for line_old, line_new in zip(old[name].splitlines(), new[name].splitlines()):
            fit = bool(FIT.match(line_old))
            for a, b in zip(split_numbers(line_old)[1], split_numbers(line_new)[1]):
                if a == b:
                    continue
                x, y = float(a), float(b)
                if x == y:
                    continue
                change = abs(y - x) / max(abs_tol, rel_tol * abs(x))
                worst[fit] = max(worst[fit], change if math.isfinite(change) else math.inf)
    return True, worst[False], worst[True]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    args = ap.parse_args(argv)

    jobs = []
    for directory in (args.parent_dir, args.change_dir):
        with open(os.path.join(directory, "jobs.json")) as fh:
            jobs.append(json.load(fh))
    old_jobs, new_jobs = jobs
    if [j["argv"] for j in old_jobs] != [j["argv"] for j in new_jobs]:
        print("the two directories hold different job lists")
        return 1

    exit_diff = text_diff = 0
    worst = {"drift": (0.0, None), "fit": (0.0, None)}  # each maximum and its job
    for index, (old, new) in enumerate(zip(old_jobs, new_jobs)):
        same_exit = old["exit"] == new["exit"]
        same_text, *drifts = job_drift(
            read_job(os.path.join(args.parent_dir, str(index))),
            read_job(os.path.join(args.change_dir, str(index))),
            *tolerances(old["argv"]),
        )
        exit_diff += not same_exit
        text_diff += not same_text
        shown = []
        for key, drift in zip(worst, drifts):
            if drift is not None and (worst[key][1] is None or drift > worst[key][0]):
                worst[key] = drift, index
            shown.append(f"{key}={'-' if drift is None else f'{drift:.3g}'}")
        print(f"{index} exit={'same' if same_exit else 'DIFF'} "
              f"text={'same' if same_text else 'DIFF'} {' '.join(shown)} "
              f"{' '.join(old['argv'])}")
    print(f"jobs={len(old_jobs)} exit_diff={exit_diff} text_diff={text_diff} "
          + " ".join(f"max_{key}={value:.3g} (job {index})"
                     for key, (value, index) in worst.items()))
    return 1 if exit_diff or text_diff else 0


if __name__ == "__main__":
    sys.exit(main())
