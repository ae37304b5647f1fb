"""Record SHA-256 digests of the builtin-corpus CLI outputs.

    python3 perfbench/record_digests.py

Runs the builtin part of the ``cli_corpus`` job list once against this
checkout's sources and writes the digest of every captured stdout and every
file ``sphtrop examples`` writes to ``perfbench/cli_digests.json``.  The
benchmark then counts any output that differs as a mismatch, so the file is
recorded once, on a commit whose outputs are known to be right.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    workdir = os.path.join(run.WORK, f"record-{os.getpid()}")
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        wl = workloads.CliCorpus(run.import_library(), 0, workdir)
        digests = wl.builtin_outputs()
    finally:
        os.chdir(cwd)
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(workloads.DIGESTS_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests['stdout'])} stdout and {len(digests['files'])} "
          f"file digests written to {workloads.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
