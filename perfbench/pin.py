"""Pin the expected verdict of every item of every input variant.

Usage, from the repository root:

    python3 perfbench/pin.py

Runs each item once, through the same code the benchmark times, and
writes the digests to expected.json. Re-pin only in a change whose purpose
is to change the program's output, and say so in that change.
"""

import json
import sys

import inputs
import run


def main():
    sys.path.insert(0, run.SRC)
    expected = {}
    for name, seeds in (("flagg", [0]), ("los", range(inputs.VARIANTS)),
                        ("cli", range(inputs.VARIANTS))):
        for seed in seeds:
            work = run.WORKLOADS[name](seed)
            for key, item in zip(work.keys, work.items):
                expected[key] = work.verdict(item, work.run(item))
            print("pinned %s variant %d" % (name, seed), file=sys.stderr)
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
