#!/usr/bin/env python3
"""Whole-request benchmark of the uocqa query service.

    python3 perfbench/run.py --workload fpras_warm --seed 1 --seconds 12 --trace 0

Run from the repository root. The script
  1. builds perfbench/harness.cc against the sources (CMake, Release) into
     $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
  2. generates the workload's inputs from --seed: a text instance and a
     stream of protocol lines, each tagged with its request class;
  3. runs the harness, which serves the stream with one closed-loop client
     (threads=1) for --seconds, replays it traced, checks every answer and
     prints a report whose last line is the JSON result.

Workloads (see perfbench/README.md for sizing and rationale):
  fpras_warm      mode=fpras over a 9-fact instance, warm plans, fresh seeds
  exact_sweep     mode=exact over a 30-fact instance, distinct pairs
  live_ingest_mc  mode=mc reads beside add_fact/begin_snapshot writes on a
                  ~620-fact live instance with a write-ahead log
"""

import argparse
import os
import random
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end well inside 180 s; the harness needs about twice --seconds
# (timed loop, then the traced replay) plus set-up.
HARNESS_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# Input generation. Each workload fixes its instance's shape (fact count,
# block sizes, join pattern) so that per-request cost is comparable across
# seeds; the seed picks every solver seed, orders the traffic, and renames
# constants and variables. Where the solver's cost depends on fact order or
# on the relative order of names (the FPRAS automata do), the fact order
# stays fixed and renaming keeps names in the same relative order.


def name_prefix(rng):
    """A seeded three-letter prefix; prefix + fixed suffixes keeps the
    relative order of names the same at every seed."""
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))


def fresh_names(rng, prefix, count):
    """`count` distinct seeded constant names (order not preserved)."""
    picks = rng.sample(range(10000, 100000), count)
    return [f"{prefix}{p}" for p in picks]


def var_names(rng, count):
    prefix = name_prefix(rng)
    return [f"v{prefix}{i}" for i in range(count)]


def instance_text(keys, facts):
    lines = [f"key {rel} = {pos}" for rel, pos in keys]
    lines += [f"{rel}({', '.join(args)})" for rel, args in facts]
    return "\n".join(lines) + "\n"


def quote(text):
    return "'" + text.replace("'", "''") + "'"


def query_line(query, answer, fields):
    extra = " ".join(f"{k}={v}" for k, v in fields)
    return f"query={quote(query)} answer={quote(answer)} {extra}"


def gen_fpras_warm(rng):
    """A 9-fact join spine around a triangle (three 2-fact key blocks), so
    every candidate answer has 0 < RF < 1. The pool has three classes of
    clearly different FPRAS cost; every request carries a fresh seed, so
    every timed request misses the result cache while its plan and
    automata are warm.

    A pass serves the classes 1:2:2 (triangle, chain3, chain2). The p50
    then falls at about the 75th percentile of chain3 and the tail at
    about the 75th percentile of chain2. On a shared host whose speed has
    a steady base with intermittent fast bursts, those upper quartiles
    hold the base speed from run to run, while a class median swings with
    the share of the run that a burst covered (perfbench/BASELINE.md)."""
    p = name_prefix(rng)
    a1, a2, b1, b2, c1, c2 = (p + s for s in ("a1", "a2", "b1", "b2", "c1",
                                              "c2"))
    facts = [
        ("R1", (a1, b1)), ("R1", (a1, b2)), ("R1", (a2, b1)),
        ("R2", (b1, c1)), ("R2", (b1, c2)), ("R2", (b2, c1)),
        ("R3", (c1, a1)), ("R3", (c1, a2)), ("R3", (c2, a1)),
    ]
    keys = [("R1", 1), ("R2", 1), ("R3", 1)]
    x, y, z, w = var_names(rng, 4)
    pool = [
        # cyclic, ghw 2: the cheapest class
        ("triangle", f"Ans({x}) :- R1({x}, {y}), R2({y}, {z}), R3({z}, {x})",
         a2),
        # acyclic chain of three atoms
        ("chain3", f"Ans({x}) :- R1({x}, {y}), R2({y}, {z}), R3({z}, {w})",
         a1),
        # acyclic chain of two atoms over a large answer support
        ("chain2", f"Ans({x}) :- R1({x}, {y}), R2({y}, {z})", a2),
    ]
    per_pass = [pool[0], pool[1], pool[1], pool[2], pool[2]]
    fields = lambda seed: [("mode", "fpras"), ("epsilon", "0.2"),
                           ("delta", "0.1"), ("seed", seed)]
    # The warm-up compiles every plan and automaton; its FPRAS seed is fixed
    # so set-up does the same work at every workload seed.
    warmup = [(cls, query_line(q, a, fields(1))) for cls, q, a in pool]
    passes = 1200
    seeds = iter(rng.sample(range(2, 2**31), passes * len(per_pass)))
    stream = []
    for _ in range(passes):
        order = per_pass[:]
        rng.shuffle(order)
        stream += [(cls, query_line(q, a, fields(next(seeds))))
                   for cls, q, a in order]
    return instance_text(keys, facts), warmup, stream


def gen_exact_sweep(rng):
    """30 facts in 19 key blocks (15552 operational repairs): every exact
    request enumerates all of them twice (RF_ur, then RF_us), about 0.3 s.
    Requests that long average out the host's short stalls, and with about
    60 of them per run the tail percentile falls inside the body of the
    latency distribution rather than on a few stalled requests. The sweep
    visits 470 distinct (query, answer) pairs, interleaving the query
    shapes evenly, so no timed request hits the result cache."""
    sizes = {"R1": [3, 2, 2, 1, 1, 1, 1],
             "R2": [3, 2, 2, 1, 1, 1],
             "R3": [3, 2, 1, 1, 1, 1]}
    a = fresh_names(rng, "a", len(sizes["R1"]))
    b = fresh_names(rng, "b", len(sizes["R2"]))
    c = fresh_names(rng, "c", len(sizes["R3"]))
    # R1: a -> b, R2: b -> c, R3: c -> a. Block i of a relation points at
    # distinct targets chosen by a seeded rotation of a fixed pattern, so
    # the join graph has the same shape at every seed.
    domains = {"R1": (a, b), "R2": (b, c), "R3": (c, a)}
    facts = []
    for rel, block_sizes in sizes.items():
        keys_of, targets = domains[rel]
        shift = rng.randrange(len(targets))
        for i, size in enumerate(block_sizes):
            for j in range(size):
                target = targets[(i + 2 * j + shift) % len(targets)]
                facts.append((rel, (keys_of[i], target)))
    rng.shuffle(facts)
    keys = [("R1", 1), ("R2", 1), ("R3", 1)]
    x, y, z, w = var_names(rng, 4)
    shapes = [
        ("chain2", f"Ans({x}) :- R1({x}, {y}), R2({y}, {z})",
         [(ai,) for ai in a]),
        ("chain2_xz", f"Ans({x}, {z}) :- R1({x}, {y}), R2({y}, {z})",
         [(ai, ci) for ai in a for ci in c]),
        ("chain3_xw",
         f"Ans({x}, {w}) :- R1({x}, {y}), R2({y}, {z}), R3({z}, {w})",
         [(ai, aj) for ai in a for aj in a]),
        ("triangle_xy",
         f"Ans({x}, {y}) :- R1({x}, {y}), R2({y}, {z}), R3({z}, {x})",
         [(ai, bj) for ai in a for bj in b]),
        ("chain2_yw", f"Ans({y}, {w}) :- R2({y}, {z}), R3({z}, {w})",
         [(bi, aj) for bi in b for aj in a]),
        ("chain2_yz", f"Ans({y}, {z}) :- R1({x}, {y}), R2({y}, {z})",
         [(bi, cj) for bi in b for cj in c]),
        ("chain2_xyz", f"Ans({x}, {y}, {z}) :- R1({x}, {y}), R2({y}, {z})",
         [(ai, bj, ck) for ai in a for bj in b for ck in c]),
    ]
    # Stratified order: shuffle each shape's answers, then merge the shapes
    # by fractional position so every prefix of the sweep holds the shapes
    # in proportion.
    keyed = []
    for cls, query, answers in shapes:
        answers = answers[:]
        rng.shuffle(answers)
        n = len(answers)
        for k, ans in enumerate(answers):
            keyed.append(((k + rng.random()) / n, cls, query, ans))
    keyed.sort()
    fields = [("mode", "exact")]
    stream = [(cls, query_line(q, ",".join(ans), fields))
              for _, cls, q, ans in keyed]
    # Warm-up: the single-atom shape, which the sweep never asks.
    warm_query = f"Ans({x}) :- R1({x}, {y})"
    warmup = [("warmup", query_line(warm_query, a[0], fields))]
    return instance_text(keys, facts), warmup, stream


def zipf_weights(n, skew):
    return [1.0 / (r + 1) ** skew for r in range(n)]


def gen_live_ingest_mc(rng):
    """E14's serving instance shape: R1..R3 with 200 key blocks each and
    Zipfian block sizes (5, 3, 2, then singletons), ~620 facts. Values of
    R1 point at R2 keys half the time, R2 at R3 keys, so chain reads have
    non-trivial support.

    The stream repeats a fixed round: 24 Monte-Carlo reads over exactly 6
    distinct (query, answer) pairs drawn Zipfian from a 16-pair pool (so 6
    misses and 18 hits: the p50 sits inside the hit class and the tail
    inside the miss class), two conflict-free add_fact writes into R3
    (outside every read's footprint, so cached results survive them) and a
    begin_snapshot after read 8, one more R3 write after read 16, and at the
    end of the round a conflicting add_fact into an R1 block the reads
    touch (which invalidates every cached result) and a begin_snapshot."""
    blocks = 200
    sizes = [max(1, int(5 / (i + 1) + 0.5)) for i in range(blocks)]
    names = {rel: fresh_names(rng, rel.lower() + "k", blocks)
             for rel in ("R1", "R2", "R3")}
    pointee = {"R1": "R2", "R2": "R3", "R3": None}
    used = set()

    def fresh_value():
        while True:
            v = f"d{rng.randrange(10**6)}"
            if v not in used:
                used.add(v)
                return v

    facts = []
    for rel in ("R1", "R2", "R3"):
        for i, size in enumerate(sizes):
            values = set()
            while len(values) < size:
                target = pointee[rel]
                if target and rng.random() < 0.5:
                    values.add(rng.choice(names[target]))
                else:
                    values.add(fresh_value())
            facts += [(rel, (names[rel][i], v)) for v in sorted(values)]
    rng.shuffle(facts)
    keys = [("R1", 1), ("R2", 1), ("R3", 1)]

    x, y, z = var_names(rng, 3)
    qx = f"Ans({x}) :- R1({x}, {y}), R2({y}, {z})"
    qy = f"Ans({y}) :- R1({x}, {y}), R2({y}, {z})"
    # The pool: the conflicting R1 blocks' keys and other R1 keys as x
    # answers, R2 keys as y answers.
    r1_hot = names["R1"][:3] + rng.sample(names["R1"][3:], 7)
    r2_hot = names["R2"][:3] + rng.sample(names["R2"][3:], 3)
    pool = [("read_x", qx, k) for k in r1_hot] + \
           [("read_y", qy, k) for k in r2_hot]
    rng.shuffle(pool)  # the Zipf rank of each pair
    pool_seeds = rng.sample(range(1, 2**31), len(pool))
    weights = zipf_weights(len(pool), 1.1)
    samples = 64  # one OcqaEngine::kMcChunk

    def read(i):
        cls, q, ans = pool[i]
        return (cls, query_line(q, ans, [("mode", "mc"),
                                         ("samples", samples),
                                         ("seed", pool_seeds[i])]))

    def add(rel, key):
        return ("write_" + ("conflicting" if rel == "R1" else "free"),
                f"add_fact rel={rel} args={quote(key + ',' + fresh_value())}")

    stream = []
    for rnd in range(2000):
        chosen = []
        while len(chosen) < 6:
            i = rng.choices(range(len(pool)), weights)[0]
            if i not in chosen:
                chosen.append(i)
        reads = chosen + rng.choices(chosen,
                                     [weights[i] for i in chosen], k=18)
        rng.shuffle(reads)
        for k, i in enumerate(reads):
            stream.append(read(i))
            if k == 7:
                stream.append(add("R3", f"r3n{rnd}a"))
                stream.append(add("R3", f"r3n{rnd}b"))
                stream.append(("publish", "begin_snapshot"))
            elif k == 15:
                stream.append(add("R3", f"r3n{rnd}c"))
        stream.append(add("R1", r1_hot[rnd % len(r1_hot)]))
        stream.append(("publish", "begin_snapshot"))
    # Warm-up: one miss per read shape at a seed the stream never uses.
    warm_seed = max(pool_seeds) + 1
    warmup = [(cls, query_line(q, ans, [("mode", "mc"), ("samples", samples),
                                        ("seed", warm_seed)]))
              for cls, q, ans in (("read_x", qx, r1_hot[0]),
                                  ("read_y", qy, r2_hot[0]))]
    return instance_text(keys, facts), warmup, stream


GENERATORS = {
    "fpras_warm": gen_fpras_warm,
    "exact_sweep": gen_exact_sweep,
    "live_ingest_mc": gen_live_ingest_mc,
}


def write_inputs(directory, workload, seed):
    rng = random.Random(f"{workload}/{seed}")
    text, warmup, stream = GENERATORS[workload](rng)
    instance = os.path.join(directory, "instance.txt")
    requests = os.path.join(directory, "requests.txt")
    with open(instance, "w") as f:
        f.write(text)
    with open(requests, "w") as f:
        for section, lines in (("warmup", warmup), ("stream", stream)):
            for cls, line in lines:
                f.write(f"{section}\t{cls}\t{line}\n")
    return instance, requests


# ---------------------------------------------------------------------------
# Build and run


def run_to_end(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it. On timeout the
    whole group (make, compilers) is killed and reaped before raising."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir):
    """Configures once, then (re)builds the harness; output goes to a log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench_harness"])
    with open(log_path, "a") as log:
        for cmd in steps:
            code, _ = run_to_end(cmd, 700, stdout=log,
                                 stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=GENERATORS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    harness = build(build_dir)

    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        instance, requests = write_inputs(run_dir, args.workload, args.seed)
        cmd = [harness, "--workload", args.workload, "--instance", instance,
               "--requests", requests, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", run_dir]
        code, out = run_to_end(cmd, HARNESS_TIMEOUT_S, stdout=subprocess.PIPE)
        sys.stdout.write(out.decode())
        sys.stdout.flush()
        if args.trace:
            spans = os.path.join(run_dir, "spans.tsv")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(
                    build_dir, f"spans-{args.workload}-{args.seed}.tsv"))
        return code
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
