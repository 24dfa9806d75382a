"""Seeded inputs for the benchmark workloads.

Every graph the program reads is a `file:` graph written here.  Its
structure comes from a generator seeded with the workload's name alone,
and `--seed` renumbers its vertices with a random permutation that
keeps vertex 0 (see `relabel`): the inputs of two seeds are isomorphic
but differently numbered, so the program reads other files and samples
other examples, while the amount of work stays the same from seed to
seed and the run-to-run spread of a metric is the host's, not the
inputs'.  The one exception is the Theorem 13 tree of sparse-local,
which keeps one numbering (see `manifest`).
Targets, formulas and sample seeds come from the fixed lists below.
`manifest(workload, seed, dir)` writes the graph files under `dir` and
returns the request list that the untraced loops, the traced replay
(`layers.exe`) and the golden recorder all share, so the three see
exactly the same inputs.

A request is a dict:

    id          stable name, the key of the golden digests
    op          learn | mc | types | game
    params      the serve-protocol parameter object (Serve.Exec)
    ckpt_every  --checkpoint-every (sweep-ckpt only), else None
    deadline_s  serve deadline; the one-shot equivalent is --timeout
    served      True when the workload sends it to `folearn serve`
    kind        its class of request (serve-mixed deals by class)
    round       the round of a one-shot request, else None
    n           order of its graph (the Prop 11 shape check uses it)
    expect      what the semantic validator checks
"""

import hashlib
import os
import random
import re

WORKLOADS = ["brute-q2", "sweep-ckpt", "sparse-local", "serve-mixed"]

# serve-mixed: request class -> share of arrivals
SERVE_MIX = [
    ("mc", 0.30),
    ("mc-erm", 0.10),
    ("types", 0.15),
    ("game", 0.15),
    ("brute", 0.15),
    ("counting", 0.10),
    ("local", 0.05),
]
BLOCK = 20  # the smallest deck block that holds every share exactly
SERVE_DEADLINE_S = 30.0
# The share of Red vertices in the 20 000-vertex graph sets the cost of
# an mc request (its sentences scan every Red vertex's neighbourhood),
# and the examples of a served local learn set that of a local request.
# With these two the mean service time is about 0.1 s, and arrivals at
# 5/s keep the engine busy about half the time (README: Workloads).
SERVE_RED = 0.04
SERVE_LOCAL_M = 40

# A one-shot workload is a list of rounds; a round holds one request of
# each size (brute-q2, sweep-ckpt) or one of each learner (sparse-local),
# in a fixed order, and each round has numberings (or sample seeds) of
# its own.  A run sends whole rounds, so every size is answered equally
# often and the median always falls between the same two sizes.  ROUND_S
# is how long a round takes on the reference host (README: Host notes);
# it sets how many rounds a run of a given length sends.
ROUNDS = 3
ROUND_S = {"brute-q2": 11.0, "sweep-ckpt": 7.5, "sparse-local": 5.5}
BRUTE_SIZES = (24, 28, 32, 36)
SWEEP_SIZES = (24, 26, 28, 30)
LOCAL_N = 100_000
ND_N = 1000

BRUTE_TARGETS = [
    "exists y. E(x1,y) /\\ exists z. E(y,z) /\\ ~(z = x1)",
    "forall y. E(x1,y) -> exists z. E(y,z) /\\ ~(z = x1)",
    "exists y. exists z. E(x1,y) /\\ E(x1,z) /\\ ~(y = z)",
]
RED_TARGETS = [
    "exists y. E(x1,y) /\\ Red(y)",
    "Red(x1) \\/ exists y. E(x1,y) /\\ Red(y)",
    "forall y. E(x1,y) -> ~Red(y)",
]
SAMPLE_SEEDS = [11, 23, 37, 41, 53, 67, 79, 83, 97, 101, 113, 127, 131, 149]

# sentences whose truth value check_sentence() computes independently.
# The evaluator stops a quantifier at its first witness, and where that
# lies depends on the numbering.  On the serve-mixed graph, whose Red
# vertices form an independent set of non-isolated vertices, the first
# two sentences are true and the third false: the outermost quantifier
# always visits every vertex, and the cost of a request is a sum over
# all of them, the same for every numbering.
SENTENCES = [
    "forall x. Red(x) -> exists y. E(x,y) /\\ ~Red(y)",
    "forall x. Red(x) -> exists y. E(x,y)",
    "exists x. Red(x) /\\ forall y. E(x,y) -> Red(y)",
]


# -- graph families -------------------------------------------------------


class G:
    """An undirected graph with one optional colour class, Red."""

    def __init__(self, n, edges, red=None):
        self.n = n
        self.edges = edges
        self.red = red

    def write(self, path):
        lines = [f"n {self.n}\n"]
        lines += [f"e {u} {v}\n" for u, v in self.edges]
        if self.red is not None:
            lines.append("c Red " + " ".join(map(str, sorted(self.red))) + "\n")
        with open(path, "w") as f:
            f.write("".join(lines))

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def gnp(rng, n, p):
    return G(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def bounded_degree(rng, n, d):
    """Random graph of maximum degree d: random stub pairing, clashes dropped."""
    deg = [0] * n
    seen = set()
    for _ in range(n * d // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or deg[u] >= d or deg[v] >= d:
            continue
        e = (min(u, v), max(u, v))
        if e in seen:
            continue
        seen.add(e)
        deg[u] += 1
        deg[v] += 1
    return G(n, sorted(seen))


def random_tree(rng, n):
    return G(n, [(rng.randrange(i), i) for i in range(1, n)])


def cycle(n):
    return G(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def grid(w, h):
    edges = [(y * w + x, y * w + x + 1) for y in range(h) for x in range(w - 1)]
    edges += [(y * w + x, (y + 1) * w + x) for y in range(h - 1) for x in range(w)]
    return G(w * h, sorted(edges))


def colour(rng, g, share):
    g.red = set(rng.sample(range(g.n), max(1, round(g.n * share))))
    return g


def colour_independent(rng, g, share):
    """Colour Red a random independent set of non-isolated vertices,
    about share of all vertices."""
    adj = g.adjacency()
    order = [v for v in range(g.n) if adj[v]]
    rng.shuffle(order)
    g.red = set()
    for v in order:
        if len(g.red) >= share * g.n:
            break
        if not any(w in g.red for w in adj[v]):
            g.red.add(v)
    return g


def relabel(rng, g):
    """An isomorphic copy of g with the vertex numbers 1..n-1 randomly
    permuted.  Vertex 0 stays put: on a realisable target every parameter
    tuple reaches error 0, the exact solvers return the first one, (0, ..),
    and the hypothesis they print (up to half a megabyte of it) is built
    from the types around that parameter.  Moving vertex 0 would change the size
    of the answer, and so the cost of the request, from seed to seed."""
    perm = [0] + rng.sample(range(1, g.n), g.n - 1)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
    red = None if g.red is None else {perm[v] for v in g.red}
    return G(g.n, edges, red)


def check_sentence(i, g):
    """Truth value of SENTENCES[i] on g, computed without the program."""
    adj = g.adjacency()
    red = g.red or set()
    if i == 0:
        return all(v not in red or any(w not in red for w in adj[v]) for v in range(g.n))
    if i == 1:
        return all(v not in red or adj[v] for v in range(g.n))
    return any(v in red and all(w in red for w in adj[v]) for v in range(g.n))


# -- requests ---------------------------------------------------------------


def _req(rid, op, params, kind, n, expect, ckpt_every=None, served=False, rnd=None):
    return {
        "id": rid,
        "op": op,
        "params": params,
        "ckpt_every": ckpt_every,
        "deadline_s": SERVE_DEADLINE_S if served else None,
        "served": served,
        "kind": kind,
        "round": rnd,
        "n": n,
        "expect": expect,
    }


def _learn(graph, target, solver, k=1, ell=0, q=1, m=0, seed=1, noise=0.0, tmax=2):
    return {
        "graph": graph, "target": target, "solver": solver, "k": k,
        "ell": ell, "q": q, "m": m, "seed": seed, "noise": noise, "tmax": tmax,
    }


def manifest(workload, seed, gdir):
    """Write the workload's graph files under gdir; return its requests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:base")  # structure: the same every seed
    perm = random.Random(f"{workload}:{seed}")  # vertex numbering
    os.makedirs(gdir, exist_ok=True)

    def save(name, g, renumber=True):
        """Write g, relabelled unless renumber is false; returns its graph
        spec and the copy written."""
        if renumber:
            g = relabel(perm, g)
        path = os.path.join(gdir, name + ".g")
        g.write(path)
        return "file:" + path, g

    reqs = []
    if workload == "brute-q2":
        # Prop 11's kernel at k=1, l=1, q=2 with m = all n tuples
        graphs = [gnp(rng, n, 0.13) for n in BRUTE_SIZES]
        for r in range(ROUNDS):
            for g in graphs:
                spec, _ = save(f"gnp-{g.n}-{r}", g)
                reqs.append(_req(
                    f"brute-n{g.n}-{r}", "learn",
                    _learn(spec, BRUTE_TARGETS[0], "brute", ell=1, q=2),
                    "brute", g.n, {"error": 0.0}, rnd=r))
    elif workload == "sweep-ckpt":
        # many cheap candidates (n^2 for l=2), swept under the Guard
        # budget that checkpointing installs
        trees = [colour(rng, random_tree(rng, n), 1 / 3) for n in SWEEP_SIZES]
        for r in range(ROUNDS):
            for g in trees:
                spec, _ = save(f"tree-{g.n}-{r}", g)
                reqs.append(_req(
                    f"sweep-n{g.n}-{r}", "learn",
                    _learn(spec, RED_TARGETS[0], "brute", ell=2, q=1),
                    "brute", g.n, {"error": 0.0}, ckpt_every=16, rnd=r))
    elif workload == "sparse-local":
        # a local learn on the big graph and a Theorem 13 learn on a tree
        # per round, each round with a sample seed of its own.  The tree
        # keeps one numbering: the Theorem 13 learner breaks ties by
        # vertex number and samples examples by it, so a renumbered tree
        # is another learning problem, and over four numberings of one
        # tree a learn took from one to four times as long.
        bspec, big = save(f"deg3-{LOCAL_N}",
                          colour(rng, bounded_degree(rng, LOCAL_N, 3), 0.10))
        tspec, tree = save(f"tree-{ND_N}", colour(rng, random_tree(rng, ND_N), 0.10),
                           renumber=False)
        for r in range(ROUNDS):
            reqs.append(_req(
                f"local-{r}", "learn",
                _learn(bspec, RED_TARGETS[0], "local", q=1, m=200, seed=SAMPLE_SEEDS[r]),
                "local", big.n, {"error": 0.0}, rnd=r))
            reqs.append(_req(
                f"nd-{r}", "learn",
                _learn(tspec, RED_TARGETS[0], "nd", ell=1, q=1, m=60,
                       seed=SAMPLE_SEEDS[r], noise=0.1),
                "nd", tree.n, {"error_max": 0.3}, rnd=r))
    else:
        big = colour_independent(rng, bounded_degree(rng, 20_000, 3), SERVE_RED)
        bspec, big = save("deg3-20000", big)
        for i, s in enumerate(SENTENCES):
            reqs.append(_req(
                f"mc-{i}", "mc", {"graph": bspec, "formula": s}, "mc", big.n,
                {"verdict": check_sentence(i, big)}, served=True))
        for c in (5, 6, 7, 8):
            spec, g = save(f"cycle-{c}", colour(rng, cycle(c), 0.5))
            for i in (0, 1):
                reqs.append(_req(
                    f"mc-erm-c{c}-{i}", "mc",
                    {"graph": spec, "formula": SENTENCES[i], "via_erm": True},
                    "mc-erm", c, {"verdict": check_sentence(i, g)}, served=True))
        for i in range(4):
            spec, _ = save(f"gnp-30-{i}", gnp(rng, 30, 0.15))
            reqs.append(_req(
                f"types-{i}", "types", {"graph": spec, "q": 2}, "types", 30,
                {"tuples": 30}, served=True))
        for w, h in ((5, 5), (6, 6), (7, 7)):
            spec, _ = save(f"grid-{w}x{h}", grid(w, h))
            reqs.append(_req(
                f"game-{w}x{h}", "game", {"graph": spec, "r": 2}, "game", w * h,
                {"splitter_wins": True}, served=True))
        # an uncoloured cycle is vertex-transitive: every numbering is the
        # same learning problem
        spec, _ = save("cycle-16", cycle(16))
        for i, t in enumerate(BRUTE_TARGETS):
            reqs.append(_req(
                f"brute-c16-{i}", "learn", _learn(spec, t, "brute", ell=1, q=2),
                "brute", 16, {"error": 0.0}, served=True))
        for i in range(3):
            spec, _ = save(f"cgnp-14-{i}", gnp(rng, 14, 0.2))
            reqs.append(_req(
                f"counting-{i}", "learn",
                _learn(spec, "atleast 2 y. E(x1,y)", "counting", ell=1, q=1),
                "counting", 14, {"error": 0.0}, served=True))
        for i in range(3):
            reqs.append(_req(
                f"local-{i}", "learn",
                _learn(bspec, RED_TARGETS[i], "local", q=1, m=SERVE_LOCAL_M,
                       seed=SAMPLE_SEEDS[i]),
                "local", big.n, {"error": 0.0}, served=True))
    return reqs


def deck(reqs, rng):
    """Endless serve-mixed requests in the order rng draws: each block of
    BLOCK holds every class at exactly its SERVE_MIX share, shuffled, and
    each class deals its requests in turn."""
    by_kind = {}
    for r in reqs:
        by_kind.setdefault(r["kind"], []).append(r)
    turn = {k: 0 for k in by_kind}
    while True:
        block = [k for k, share in SERVE_MIX for _ in range(round(BLOCK * share))]
        rng.shuffle(block)
        for k in block:
            yield by_kind[k][turn[k] % len(by_kind[k])]
            turn[k] += 1


def cli_argv(req, ckpt_path):
    """The one-shot `folearn_cli` argument vector equivalent to req."""
    p = req["params"]
    argv = [req["op"], "-g", p["graph"]]
    if req["op"] == "learn":
        argv += ["-t", p["target"], "--solver", p["solver"], "-k", str(p["k"]),
                 "-l", str(p["ell"]), "-q", str(p["q"]), "-m", str(p["m"]),
                 "--seed", str(p["seed"]), "--tmax", str(p["tmax"])]
        if p["noise"]:
            argv += ["--noise", repr(p["noise"])]
    elif req["op"] == "mc":
        argv += ["-f", p["formula"]]
        if p.get("via_erm"):
            argv.append("--via-erm")
    elif req["op"] == "types":
        argv += ["-q", str(p["q"])]
    elif req["op"] == "game":
        argv += ["-r", str(p["r"])]
    if req["ckpt_every"]:
        argv += ["--checkpoint", ckpt_path, "--checkpoint-every",
                 str(req["ckpt_every"])]
    if req["deadline_s"] is not None:
        argv += ["--timeout", repr(req["deadline_s"])]
    return argv


# -- correctness ------------------------------------------------------------

# Type ids (`#17`, `c#3`) number types in interning order, which depends
# on what a resident process computed before.  A learned hypothesis prints the parts of its
# Hintikka formula in type-id order, so the same request can print the
# same formula with its conjuncts and disjuncts in another order (and
# broken into other lines).  Answers are therefore compared in a
# canonical form: type ids blanked, and the hypothesis formula replaced
# by a digest that is invariant under reordering the operands of /\ and
# \/.  The digest is built innermost group first: each parenthesised
# group becomes a hash of its quantifier and its sorted disjuncts of
# sorted conjuncts, until no parenthesis is left.
_TYPE_ID = re.compile(rb"#[0-9]+")
_ATOM = re.compile(rb"(\w+)\(([^()]*)\)")
_GROUP = re.compile(rb"\(([^()]*)\)")
_QUANTIFIER = re.compile(rb"\s*((?:exists|forall|atleast\s+\d+)(?:\s+[^\s.]+)+\.)")
_OR = re.compile(rb"\\/")
_AND = re.compile(rb"/\\")


def _flat(text):
    m = _QUANTIFIER.match(text)
    head = b" ".join(m.group(1).split()) if m else b""
    body = text[m.end():] if m else text
    parts = sorted(b"&".join(sorted(b" ".join(lit.split()) for lit in _AND.split(d)))
                   for d in _OR.split(body))
    return hashlib.sha1(head + b"{" + b"|".join(parts) + b"}").hexdigest().encode()


def _formula_digest(text):
    text = _ATOM.sub(rb"\1[\2]", text)  # E(x, y) -> E[x, y]: not a group
    seen = {}

    def group(m):
        if m.group(1) not in seen:
            seen[m.group(1)] = b"@" + _flat(m.group(1)) + b"@"
        return seen[m.group(1)]

    while b"(" in text:
        text = _GROUP.sub(group, text)
    return _flat(text)


def canonical(stdout):
    lines = _TYPE_ID.sub(b"#", stdout).split(b"\n")
    head = next((i for i, l in enumerate(lines)
                 if l.startswith(b"phi(") and l.endswith(b") =")), None)
    if head is None:
        return b"\n".join(lines)
    end = next((i for i in range(head + 1, len(lines)) if lines[i].startswith(b"w = ")),
               len(lines))
    body = _formula_digest(b"\n".join(lines[head + 1:end]))
    return b"\n".join(lines[:head + 1] + [b"  <" + body + b">"] + lines[end:])


def validate(req, code, stdout):
    """Semantic check of one answer; returns an error string or None."""
    if code != 0:
        return f"exit code {code}"
    text = stdout.decode("utf-8", "replace")
    exp = req["expect"]
    if req["op"] == "learn":
        m = re.search(r"^training error: ([0-9.]+)$", text, re.M)
        if not m:
            return "no training error line"
        err = float(m.group(1))
        if "error" in exp and err != exp["error"]:
            return f"training error {err} on a realisable target"
        if "error_max" in exp and err > exp["error_max"]:
            return f"training error {err} > {exp['error_max']}"
    elif req["op"] == "mc":
        first = text.split("\n", 1)[0]
        if first != ("true" if exp["verdict"] else "false"):
            return f"verdict {first!r}, expected {exp['verdict']}"
        if req["params"].get("via_erm") and "(oracle calls: " not in text:
            return "no oracle-call line"
    elif req["op"] == "types":
        m = re.match(r"(\d+) distinct tp_\d+ classes of 1-tuples on (\d+) vertices", text)
        sizes = [int(s) for s in re.findall(r"^class \d+ .*: (\d+) tuples", text, re.M)]
        if not m or int(m.group(1)) != len(sizes) or sum(sizes) != exp["tuples"]:
            return "type classes do not partition the tuples"
    elif req["op"] == "game":
        if not re.search(r"^Splitter wins in \d+ rounds$", text, re.M):
            return "Splitter did not win"
    return None
