#!/usr/bin/env python
"""Byte identity of one scenario across hash seeds, worker counts and
(for a cluster scenario) node counts.

Runs ``python -m repro chaos`` -- or ``cluster`` with ``--cluster`` --
twice: ``PYTHONHASHSEED=0`` with two workers, then
``PYTHONHASHSEED=271828`` with one (and the second of ``--nodes A,B``).
The two runs must print the same ``sha256`` lines (dataset, plan,
ledger, recovered / global / reference rollup), write byte-identical
ledger JSON and dataset shards, and the first must close its
verification loop (``recall 1.00``).  ``cluster`` itself exits
non-zero when the merged rollup is not the single-collector
reference::

    python tools/invariance.py backend_crash
    python tools/invariance.py coexistence --seed 3
    python tools/invariance.py collector_failover --cluster --nodes 3,5

Exit code 0 when every comparison holds, 1 otherwise.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
HASH_SEEDS = ("0", "271828")
WORKERS = ("2", "1")


def _run(args, side, root, nodes):
    """One run; returns ``(stdout, shard dir, ledger path)``."""
    shards = os.path.join(root, "shards%d" % side)
    ledger = os.path.join(root, "ledger%d.json" % side)
    argv = [sys.executable, "-m", "repro",
            "cluster" if args.cluster else "chaos",
            "--scenario", args.scenario, "--seed", str(args.seed),
            "--workers", WORKERS[side], "--shard-dir", shards,
            "--ledger", ledger]
    if nodes:
        argv += ["--nodes", nodes[side]]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEEDS[side],
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                          universal_newlines=True)
    sys.stdout.write(done.stdout)
    if done.returncode:
        sys.exit("invariance: %s exited %d"
                 % (" ".join(argv[1:]), done.returncode))
    return done.stdout, shards, ledger


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("scenario")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cluster", action="store_true",
                        help="run the scenario through `repro cluster`")
    parser.add_argument("--nodes", default="",
                        help="A,B: node count of each run (cluster)")
    args = parser.parse_args(argv)
    nodes = args.nodes.split(",") if args.nodes else None
    if nodes and (len(nodes) != 2 or not args.cluster):
        parser.error("--nodes takes A,B and needs --cluster")

    failures = []
    with tempfile.TemporaryDirectory(prefix="invariance-") as root:
        out0, shards0, ledger0 = _run(args, 0, root, nodes)
        out1, shards1, ledger1 = _run(args, 1, root, nodes)
        digests0, digests1 = (
            [line for line in out.splitlines() if "sha256" in line]
            for out in (out0, out1))
        if not digests0 or digests0 != digests1:
            failures.append("sha256 lines differ: %r vs %r"
                            % (digests0, digests1))
        if not filecmp.cmp(ledger0, ledger1, shallow=False):
            failures.append("ledger JSON differs")
        names = sorted(os.listdir(shards0))
        if not names or names != sorted(os.listdir(shards1)):
            failures.append("shard file names differ")
        else:
            _same, differ, errors = filecmp.cmpfiles(
                shards0, shards1, names, shallow=False)
            if differ or errors:
                failures.append("shards differ: %s"
                                % ", ".join(differ + errors))
        if "recall 1.00" not in out0:
            failures.append("verification did not print recall 1.00")
    for failure in failures:
        print("INVARIANCE FAIL (%s): %s" % (args.scenario, failure))
    if not failures:
        print("invariance: %s OK (%d sha256 lines, %d shards)"
              % (args.scenario, len(digests0), len(names)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
