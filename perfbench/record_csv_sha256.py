"""Record the SHA-256 of every CSV each workload writes, per seed, in csv_sha256.json.

The stored digests are the reference for the benchmark's byte-identity
diagnostic (`cli.csv_changed_files`).  Run once, from the repository root,
at the commit whose outputs are the reference; existing entries for other
seeds are kept:

    python3 perfbench/record_csv_sha256.py --seeds 0..31
"""

import argparse
import json
import os
import shutil

import run
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="seed range, e.g. 0..31")
    lo, hi = map(int, parser.parse_args().seeds.split(".."))
    cli_main = run.load_program()
    with open(run.CSV_BASELINE) as handle:
        stored = json.load(handle)
    work_dir = os.path.join(run.WORK, "record")
    for name in workloads.NAMES:
        shutil.rmtree(work_dir, ignore_errors=True)
        workload = workloads.build(name, work_dir)
        run.write_system_files(workload, work_dir)
        for seed in range(lo, hi + 1):
            result = run.run_pass(cli_main, workload, seed, os.path.join(work_dir, "out"))
            stored.setdefault(name, {})[str(seed)] = result.hashes(workload)
            print(f"{name} seed {seed}: {len(stored[name][str(seed)])} files", flush=True)
    with open(run.CSV_BASELINE, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
