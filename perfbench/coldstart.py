"""One cold set-up, timed inside a fresh interpreter.

    python3 perfbench/coldstart.py WORKLOAD SEED ROUNDS

Imports every arglue module from ``src/``, generates the workload's
seeded rounds, and prints the seconds that took.  ``run.py`` starts this
script once per set-up it times.  arglue is imported before anything of
the benchmark's own, so arglue's imports pay for every module it uses.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# the arglue modules, one per layer
LAYERS = ("core", "linalg", "replab", "arquiver", "fracture", "gluing",
          "selfglue", "verifier", "cli")


def main(name, seed, rounds):
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    mods = {m: __import__(f"arglue.{m}", fromlist=["_"]) for m in LAYERS}
    import random
    import types
    from workloads import WORKLOADS
    WORKLOADS[name].generate(types.SimpleNamespace(**mods),
                             random.Random(seed), rounds)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))))
