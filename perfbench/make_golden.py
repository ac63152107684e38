"""Write golden.json: outputs of the current risopt for the default seed at desk scale.

    python3 perfbench/make_golden.py

Records the SHA-256 of inputs.rist and targets.rist for every azimuth
column of the sweep grid, and the eval report rows of the score
workload.  Run it only on a commit whose outputs are known good (it was
first run on the seed commit); the benchmark then requires later
commits to reproduce these bytes and values.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> None:
    work = ROOT / ".perfbench_work" / "golden"
    try:
        seed, desk = workloads.GOLDEN_SEED, workloads.DESK
        sweep = workloads.Sweep(desk, seed, work)
        hashes = {}
        for column in range(workloads.N_AZ):
            sweep.chunk(column)
            hashes[str(column)] = [workloads.sha256(sweep.out / "inputs.rist"),
                                   workloads.sha256(sweep.out / "targets.rist")]
        score = workloads.Score(desk, seed, work)
        code, _ = workloads.quiet_main(score.argv)
        if code:
            raise SystemExit(f"risopt eval exited with {code}")
        _, rows = workloads.parse_csv(score.report.read_text())
        golden = {"sweep": hashes, "score": rows.tolist()}
        workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
