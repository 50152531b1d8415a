"""sha256 of every output file that the benchmark workloads write.

    python3 tools/output_digests.py OUT.json [--seeds 11 14]
    python3 tools/output_digests.py --compare A.json B.json

The first form runs every job of the workloads in bench/workloads.py at each
seed, as the benchmark's user operation does but with the timings left out
of report.txt: config_from_dict -> run_model ->
write_outputs(include_timings=False). It writes sorted JSON
{"workload/seed/model/file": sha256}. The second form prints each key whose
digest differs or that one file lacks, and exits 1 if there is any. Run the
first form in two checkouts and compare the files to show that a change
leaves every output byte for byte. It imports bench/ and writes nothing
there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # no __pycache__ under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from ruinwalk.config import config_from_dict  # noqa: E402
from ruinwalk.pipeline import run_model  # noqa: E402
from ruinwalk.reporting import write_outputs  # noqa: E402
from workloads import WORKLOADS, matrix_jobs  # noqa: E402


def output_digests(seeds) -> dict[str, str]:
    """{workload/seed/model/file: sha256} over every job's written files."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in seeds:
                for job in matrix_jobs(workload, seed):
                    key = f"{workload}/{seed}/{job.model_id}"
                    report = run_model(config_from_dict(job.config), verify=job.verify)
                    for path in write_outputs(report, Path(tmp) / key, include_timings=False):
                        digests[f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(digests.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 14])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        for key in keys:
            print(f"{key}: {a.get(key)} != {b.get(key)}")
        print(f"{len(keys)} of {len(a.keys() | b.keys())} keys differ")
        return 1 if keys else 0
    if args.out is None:
        parser.error("give an output file or --compare A B")
    digests = output_digests(args.seeds)
    Path(args.out).write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{len(digests)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
