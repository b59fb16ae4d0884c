"""A fixed CPU-bound Python workload, timed by run.py once before each pass
to follow the speed of the machine.

Its work never changes: it imports nothing from the repository and its
input is a constant, so a change to unilcalc cannot change its time.  The
mix resembles unilcalc's inner loops: integer bit arithmetic, tuple keys
and dict traffic, with a working set of some 30 MB (peak RSS 31 MB), so that
contention for caches and memory slows it as it slows the program.  It
prints a checksum, which run.py checks.

    python3 perfbench/calibrate.py
"""

ROUNDS = 80_000


def main():
    table = {}
    acc = 1
    for i in range(ROUNDS):
        acc = (acc * 0x9E3779B1 + i) & 0xFFFFFFFFFFFF
        key = (acc & 0x3FFFF, i & 7)
        table[key] = table.get(key, 0) ^ (acc >> 7)
    print(sum(v for _, v in sorted(table.items())) & 0xFFFFFFFF)


if __name__ == "__main__":
    main()
