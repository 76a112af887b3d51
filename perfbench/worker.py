"""One benchmark pass in a fresh interpreter.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload codebook --seed 1 --trace 0

The worker imports ``qtelarray.cli`` and the layer modules and prints
``ready``; the parent times set-up up to that line. It then builds the
workload's items from the seed, runs and checks each once, in order, and
prints the pass record as one JSON line.
"""

import sys


def main(argv=None) -> int:
    import qtelarray.cli  # noqa: F401 - set-up ends once the layers are imported
    import qtelarray.qcore  # noqa: F401

    print("ready", flush=True)

    import argparse
    import json

    import workloads

    parser = argparse.ArgumentParser(description="run one benchmark pass")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the traced pass's spans to this file")
    args = parser.parse_args(argv)
    result = workloads.run_pass(args.workload, args.seed, bool(args.trace),
                                args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
