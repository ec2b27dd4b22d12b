"""The benchmark's workloads: the butterflylab subcommands each one runs.

An op is (phase, argv). Every op gets ``--seed <workload seed>`` and its own
``--out`` directory appended, so the seed reaches the program only as a flag.

Phases:

* ``cold``  timed; these ops make up ``wall_s``. They run first in a fresh
  interpreter, so every memo ladder starts empty.
* ``warm``  timed separately as ``warm_s``; the ladder ops again in the same
  process, with the ladders already full. ``moments`` is left out of this
  pass: it has no memo, so a second run would repeat the cold time and hide
  the ladder-hit cost that ``warm_s`` is there to show.
* ``probe`` untimed and not counted as an operation. It runs a parameter set
  that is inside a documented cap but fails at the seed (see NOTES.md), so a
  fix lowers ``probe_failures`` without adding time to ``wall_s``.
"""

TABLES = [
    ["lis-table", "--n", "1..10"],
    ["fit", "--mode", "exact", "--n", "3..12"],
    ["cycles-table", "--p", "2", "--n", "1..12"],
    ["cycles-table", "--p", "3", "--n", "1..7"],
    ["moments", "--p", "5", "--k-max", "22"],
    ["moments", "--p", "7", "--k-max", "14"],
    ["fit", "--mode", "float", "--n", "3..20"],
    ["density", "--p", "2", "--n", "20"],
]

WORKLOADS = {
    # Exact big-integer convolution (pmf.int_convolve) and Fraction moments;
    # no GEPP and no sampling, so Monte Carlo changes should not move it.
    "tables": (
        [("cold", argv) for argv in TABLES]
        + [("warm", argv) for argv in TABLES if argv[0] != "moments"]
        + [("probe", ["lis-table", "--n", "11..12"])]
    ),
    # Per-trial overhead: thousands of batch-of-one GEPP calls on small N.
    "mc-small": [
        ("cold", ["lis-mc", "--n", "2..7", "--trials", "100"]),
        ("cold", ["verify"]),
    ],
    # Few trials at large N: O(N^3) elimination, and patience-sort LIS plus
    # materialize at N = 2^20. Bernoulli keeps exact pivot ties in play.
    "mc-large": [
        ("cold", ["lis-mc", "--ensembles", "goe,ns-diag", "--n", "10..10", "--trials", "1"]),
        ("cold", ["lis-mc", "--ensembles", "gue,bernoulli", "--n", "9..9", "--trials", "2"]),
        ("cold", ["lis-mc", "--ensembles", "uniform,bs-scalar,ns-scalar", "--n", "20..20",
                  "--trials", "1"]),
    ],
}
