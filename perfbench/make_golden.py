"""Regenerate golden.json: the sha256 of every CLI item's report.

Run from the repository root after a change that alters a report on
purpose::

    PYTHONPATH=src python3 perfbench/make_golden.py

One digest is pinned per CLI item and CLI seed (0 .. CLI_SEEDS - 1). A run
whose report differs from its digest counts as a failed item.
"""

import json
import sys

import workloads


def main() -> int:
    golden = {}
    for specs in workloads.CLI_ITEMS.values():
        for spec in specs:
            for cli_seed in range(workloads.CLI_SEEDS):
                argv = workloads.cli_argv(spec, cli_seed)
                code, text = workloads.run_cli(argv)
                if code != 0:
                    print(f"{' '.join(argv)}: exit code {code}", file=sys.stderr)
                    return 1
                golden[workloads.cli_key(argv)] = workloads.report_digest(text)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
