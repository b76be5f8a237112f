#!/usr/bin/env python3
"""perfbench: the repository benchmark for the `acc` AutoCorres reproduction.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/BENCH.md for the full rationale):

  table5-translate  one `acc translate --no-store` per Ac_codegen Table 5 unit
  edit-serve        one `acc serve --socket --store` process, driven by two
                    closed-loop client connections with seeded one-function
                    edits, re-translations and checks
  corpus-check      one `acc check --no-store` per file of corpus/

With --trace 0 the run times the workload as users invoke it and prints
every end-to-end metric.  With --trace 1 it makes the traced run instead:
the same inputs go through `acc trace` (a Chrome trace of every pipeline
phase span, checked by `acc trace --validate`), `acc stats --profile-json`
(the program's per-phase profile), `acc effort --json` (kernel rule
counts), `acc check` and `acc serve --slow-log`, and every per-layer
metric is printed.  The last stdout line is always one JSON object with
the keys correct, attempted, failed and metrics.

The script builds `acc` from source with dune, generates its inputs with
perfbench/gen.ml (the repository's Ac_codegen, run by the OCaml toplevel),
keeps its scratch files in .perfbench/ under the checkout, and exits
non-zero without printing a result when the checkout cannot be built.

Every reported time is normalized to the speed of the machine during the
run: between measured operations the run times a fixed reference job (the
OCaml bytecode compiler on a fixed generated source file, not repository
code) and scales each measured time by REF_S / median reference time.  On a
shared host the machine's speed drifts by up to half within minutes; the
reference job drifts with it, closely if not exactly (perfbench/BENCH.md
has the figures), so the ratio moves far less, while a change to `acc`
still moves it one for one.  The raw seconds are printed beside the
normalized ones, above the result line.  Per-layer times (--trace 1) are
the program's own figures, not normalized.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
ACC = os.path.join(ROOT, "_build", "default", "bin", "acc.exe")
GEN = os.path.join("perfbench", "gen.ml")

TABLE5_UNITS = ["sel4-like", "capdl-sysinit-like", "piccolo-like", "echronos-like"]
EDIT_BASE = "capdl-sysinit-like"
# Set-up is repeated for SETUP_WINDOW_S seconds (at least SETUP_MIN_REPS
# times) and its median reported: one set-up takes 0.03-0.5 s, and single
# set-ups on a shared machine swing by a third from one second to the next.
SETUP_WINDOW_S = 3.0
SETUP_MIN_REPS = 5
# edit-serve requests come in blocks with a fixed mix (shuffled per block):
# fresh one-function edits, re-translations and checks of earlier variants.
EDIT_MIX = ["edit"] * 4 + ["translate"] * 2 + ["check"] * 2
EDIT_BLOCK = len(EDIT_MIX)  # requests per "pass" for wall_s
SAMPLE_VARIANTS = 3  # edit-serve variants re-translated with --no-store
# The machine-speed reference: a run times it once per REF_EVERY_S seconds
# of measured work, and reports times as if one reference job took REF_S
# seconds.  REF_FUNCS sizes its source (~0.25 s on a 2-core VM): short
# jobs, often, because single timings scatter by ~10% and the median of
# many is what the normalization needs.
REF_S = 0.25
REF_EVERY_S = 1.0
REF_FUNCS = 125
REF_MIN = 4  # reference timings made before the first measured operation

# A failed operation's latency: it misses every percentile.
MISSED = math.inf
MISSED_HEAP_MB = 1e12


class BenchError(Exception):
    """The checkout cannot be benchmarked (not built, not a checkout)."""


# ---------------------------------------------------------------------------
# Processes


def child_env():
    env = dict(os.environ)
    for k in ("ACC_STORE", "ACC_FAULTS"):
        env.pop(k, None)
    # Prints the GC summary (top_heap_words) on stderr at exit.
    env["OCAMLRUNPARAM"] = "v=0x400"
    return env


def run(args, timeout=170):
    """Run a command to completion; returns (seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    p = subprocess.run(args, capture_output=True, env=child_env(), timeout=timeout)
    return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr


def gc_summary(stderr):
    """The runtime's GC summary (OCAMLRUNPARAM=v=0x400) as {name: number}."""
    return {k.decode(): float(v) for k, v in re.findall(rb"^(\w+): ([\d.]+)$", stderr, re.M)}


def top_heap_mb(r, stderr, what):
    """Peak major heap in MB.  A missing GC summary is a failed check and
    reads as a huge heap, never as a small one."""
    words = gc_summary(stderr).get("top_heap_words")
    r.check(words is not None, f"{what}: no GC summary at exit")
    return words * 8 / 1e6 if words is not None else MISSED_HEAP_MB


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isfile(os.path.join(ROOT, "bin", "acc.ml"))):
        raise BenchError("not the root of a source checkout (no dune-project / bin/acc.ml)")
    for tool in ("dune", "ocaml", "ocamlc"):
        if shutil.which(tool) is None:
            raise BenchError(tool + " not found")
    # The shared dune cache lives outside the checkout: keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ".", "bin/acc.exe"],
        cwd=ROOT, env=env, capture_output=True, timeout=880)
    if p.returncode != 0 or not os.path.isfile(ACC):
        sys.stderr.write(p.stderr.decode(errors="replace")[-4000:])
        raise BenchError("build failed")


def fresh_dir(*parts):
    d = os.path.join(WORK, *parts)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def gen_units(seed, out, names):
    # -noinit: read no ~/.ocamlinit from outside the checkout.
    _, rc, _, err = run(["ocaml", "-noinit", GEN, str(seed), out] + names)
    if rc != 0:
        raise BenchError("input generation failed: " + err.decode(errors="replace"))
    return [os.path.join(out, n + ".c") for n in names]


# ---------------------------------------------------------------------------
# Statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    """Interpolated between order statistics, never beyond the largest."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def finite_ms(x):
    """Latency in ms; a percentile that lands on a failed request is reported
    as a huge number (the run is marked incorrect anyway)."""
    return x * 1000 if math.isfinite(x) else 1e12


class Run:
    """Operation accounting shared by the workloads."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        """Count one operation or output check; a miss is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


# ---------------------------------------------------------------------------
# Output-size metrics and kernel re-validation (untimed)


STATS_ROW = re.compile(r"^\s*(\S+\.c)\s+(.*)$")


def stats_of(r, path):
    """SpecLn(AC), Term(AC), Guards(AC), functions and the S/1/2/H/W ladder."""
    _, rc, out, _ = run([ACC, "stats", "--no-store", path])
    for line in out.decode().splitlines():
        m = STATS_ROW.match(line)
        if m:
            cols = m.group(2).split()
            # LoC Fns Parse AC SpecLn(P) SpecLn(AC) Term(P) Term(AC) SpecLn↓ Term↓
            # Guards(P) Guards(AC) Guards↓ S/1/2/H/W BudgetX
            fns = int(cols[1])
            ladder = cols[13]
            r.check(rc == 0, f"{path}: acc stats exit {rc}")
            # Term(AC) is a per-function average, floored: scaled back to
            # the unit it is deterministic but moves in steps of Fns nodes.
            return {"fns": fns, "spec": int(cols[5]), "term": int(cols[7]) * fns,
                    "guards_p": int(cols[10]), "guards": int(cols[11]), "ladder": ladder}
    r.check(False, f"{path}: acc stats printed no row")
    return {"fns": 0, "spec": 0, "term": 0, "guards_p": 0, "guards": 0, "ladder": ""}


def all_at_wa_chained(r, path, fns):
    """--diag-json: every function at WA with an end-to-end chain."""
    _, rc, out, _ = run([ACC, "translate", "--no-store", "--diag-json", path])
    try:
        funcs = json.loads(out)["functions"]
    except (ValueError, KeyError):
        funcs = []
    ok = (rc == 0 and len(funcs) == fns
          and all(f["level"] == "WA" and f["chained"] for f in funcs))
    return r.check(ok, f"{path}: not every function at WA with a chained theorem")


def kernel_revalidates(r, path):
    _, rc, out, _ = run([ACC, "check", "--no-store", "--cases", "0", path])
    return r.check(rc == 0 and b"all refinement derivations re-validated" in out,
                   f"{path}: kernel re-validation failed")


def size_metrics(r, paths, need_wa):
    """Sum SpecLn/Term/Guards over the inputs; with need_wa also demand the
    whole unit at WA (ladder 0/0/0/0/n) with chained theorems."""
    tot = {"spec": 0, "term": 0, "guards": 0}
    for p in paths:
        s = stats_of(r, p)
        for k in tot:
            tot[k] += s[k]
        if need_wa:
            r.check(s["ladder"] == f"0/0/0/0/{s['fns']}",
                    f"{p}: ladder {s['ladder']} is not all-WA")
            all_at_wa_chained(r, p, s["fns"])
    return tot


def timed_median(f, cleanup=None):
    """Repeat a set-up for SETUP_WINDOW_S seconds: (median seconds, last
    result).  cleanup(result) runs, untimed, before each repetition."""
    times, result = [], None
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_WINDOW_S:
        if times and cleanup:
            cleanup(result)
        t0 = time.perf_counter()
        result = f()
        times.append(time.perf_counter() - t0)
    return median(times), result


# ---------------------------------------------------------------------------
# Machine-speed reference


def reference_source():
    """A fixed OCaml module for the reference job: pattern matching,
    closures, lists and strings, so that the compiler's parse, type-check
    and code generation allocate the way `acc`'s phases do."""
    out = ["type t = Leaf of int | Node of t * string * t | Pair of t * t\n"]
    for i in range(REF_FUNCS):
        out.append(f"""let rec f{i} (x : t) (acc : int list) : int list * string =
  match x with
  | Leaf k when k > {i % 17} -> (k + {i} :: acc, "l{i}")
  | Leaf k -> (k * {i % 7 + 1} :: acc, string_of_int k)
  | Node (a, s, b) -> let (l, s2) = f{i} a acc in let (r, _) = f{i} b l in (r, s ^ s2)
  | Pair (a, b) -> let r = {{ contents = acc }} in
    List.iter (fun y -> r := (y + {i}) :: !r) (fst (f{i} a acc));
    (fst (f{i} b !r), "p")
""")
        if i:
            out.append(f"let g{i} = fun (x, y) -> let (a, b) = f{i - 1} x y in "
                       f"(List.map (fun z -> z * {i}) a, String.length b)\n")
    return "".join(out)


class RefClock:
    """Times the reference job (`ocamlc -c` of reference_source()) between
    measured operations.  scale() turns a measured time into seconds on a
    machine where the job takes REF_S: measured x REF_S / median job time."""

    def __init__(self):
        d = fresh_dir("ref")
        src = os.path.join(d, "ref.ml")
        with open(src, "w") as f:
            f.write(reference_source())
        ocamlc = shutil.which("ocamlc.opt") or shutil.which("ocamlc")
        self.args = [ocamlc, "-c", "-o", os.path.join(d, "ref.cmo"), src]
        self.since = 0.0
        self.job()  # warm-up, untimed
        self.times = [self.job() for _ in range(REF_MIN)]

    def job(self):
        dt, rc, _, err = run(self.args)
        if rc != 0:
            raise BenchError("reference job failed: " + err.decode(errors="replace")[-300:])
        return dt

    def after(self, seconds):
        """Account measured work; time the job once per REF_EVERY_S of it."""
        self.since += seconds
        while self.since >= REF_EVERY_S:
            self.times.append(self.job())
            self.since -= REF_EVERY_S

    def scale(self):
        return REF_S / median(self.times)


# ---------------------------------------------------------------------------
# table5-translate


def table5_setup(seed):
    def once():
        out = fresh_dir("table5")
        units = gen_units(seed, out, TABLE5_UNITS)
        # Warm the binary and the page cache on the smallest unit.
        run([ACC, "translate", "--no-store", units[-1]])
        return units
    return timed_median(once)


def table5(seed, seconds, r):
    clock = RefClock()
    setup_s, units = table5_setup(seed)
    passes, heap = [], 0.0
    per_unit = {name: [] for name in TABLE5_UNITS}
    digests = {}
    deadline = time.perf_counter() + seconds
    ops, busy = 0, 0.0
    while time.perf_counter() < deadline or not passes:
        pass_s, pass_ok = 0.0, True
        for name, path in zip(TABLE5_UNITS, units):
            dt, rc, out, err = run([ACC, "translate", "--no-store", path])
            pass_s += dt
            ops += 1
            d = hashlib.sha256(out).hexdigest()
            same = digests.setdefault(name, d) == d
            pass_ok &= r.check(rc == 0 and same,
                               f"{name}: exit {rc}" if rc else f"{name}: stdout digest changed")
            h = top_heap_mb(r, err, name)
            pass_ok &= h != MISSED_HEAP_MB
            heap = max(heap, h)
            per_unit[name].append(dt)
        passes.append(pass_s if pass_ok else MISSED)
        busy += pass_s
        clock.after(pass_s)
    sizes = size_metrics(r, units, need_wa=True)
    revalidated = sum(kernel_revalidates(r, u) for u in units)
    for name, times in per_unit.items():
        print(f"  {name:20s} median {median(times):.4f} s (raw) over {len(times)} translations")
    return {
        "clock": clock,
        "setup_s": setup_s,
        "wall_s": median(passes),
        "peak_heap_mb": heap,
        "sizes": sizes,
        "requests": passes,
        "ops_per_s": ops / busy,
        "verdict_ratio": revalidated / len(units),
    }


# ---------------------------------------------------------------------------
# edit-serve


FN_START = "  unsigned i = 0u;\n"  # one per generated function, after its locals
GOLDEN = (math.sqrt(5) - 1) / 2


class EditStream:
    """The seeded request stream: 1/2 translate of a fresh one-function edit,
    1/4 translate of an earlier variant, 1/4 check of an earlier variant, in
    blocks of EDIT_MIX shuffled by the seed.

    The edited functions sweep the unit evenly: a golden-ratio sequence from
    a seeded start picks each one's position.  An edit's cost depends on
    where its function sits in the call graph, so an even sweep gives every
    seed the same mix of cheap and costly edits, where independent random
    picks made a run's latency depend on its seed by about 10%."""

    def __init__(self, seed, base_path, out_dir):
        with open(base_path) as f:
            self.base = f.read()
        self.starts = [m.end() for m in re.finditer(re.escape(FN_START), self.base)]
        self.rng = random.Random(seed)
        self.sweep = self.rng.random()
        self.out_dir = out_dir
        self.variants = [base_path]  # files the server has been sent
        self.edits = set()
        self.block = []
        self.lock = threading.Lock()

    def fresh_edit(self):
        while True:
            self.sweep = (self.sweep + GOLDEN) % 1.0
            fn = int(self.sweep * len(self.starts))
            k = self.rng.randrange(1, 1 << 16)
            if (fn, k) not in self.edits:
                break
        self.edits.add((fn, k))
        at = self.starts[fn]
        src = self.base[:at] + f"  y = y ^ {k}u;\n" + self.base[at:]
        path = os.path.join(self.out_dir, f"v{len(self.edits):04d}.c")
        with open(path, "w") as f:
            f.write(src)
        return path

    def next(self):
        """The next request line (writes the edited file it names)."""
        with self.lock:
            if not self.block:
                self.block = list(EDIT_MIX)
                self.rng.shuffle(self.block)
            kind = self.block.pop()
            if kind == "edit":
                path = self.fresh_edit()
                self.variants.append(path)
                return "translate " + path
            return kind + " " + self.rng.choice(self.variants)


class Server:
    """One `acc serve --socket` process; stopped with SIGTERM (drain)."""

    def __init__(self, store, sock, slow_log=None):
        # Relative to the checkout root: socket paths are limited to ~100 bytes.
        sock = os.path.relpath(sock, ROOT)
        args = [ACC, "serve", "--socket", sock, "--store", store]
        if slow_log:
            args += ["--slow-ms", "0", "--slow-log", slow_log]
        self.sock = sock
        self.err_path = sock + ".stderr"
        self.err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=self.err,
                                     env=child_env())
        deadline = time.perf_counter() + 30
        while True:
            try:
                c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                c.connect(sock)
                c.close()
                break
            except OSError:
                c.close()
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise BenchError("acc serve did not start")
                time.sleep(0.01)

    def stop(self):
        """Drain and stop; returns the server's stderr."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        with open(self.err_path, "rb") as f:
            return f.read()


class Conn:
    def __init__(self, sock):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.connect(sock)
        self.buf = b""

    def request(self, line):
        self.s.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.s.recv(1 << 16)
            if not chunk:
                raise OSError("server closed the connection")
            self.buf += chunk
        resp, self.buf = self.buf.split(b"\n", 1)
        return resp

    @property
    def closed(self):
        return self.s.fileno() < 0

    def close(self):
        self.s.close()


def response_ok(line, resp, fns):
    """Every response "ok":true; translate: every function at WA, chained;
    check: "kernel":"ok" and nothing degraded."""
    try:
        j = json.loads(resp)
    except ValueError:
        return False
    if not j.get("ok"):
        return False
    if line.startswith("check "):
        return j.get("kernel") == "ok" and j.get("degraded") == 0
    funcs = j.get("result", {}).get("functions", [])
    return len(funcs) == fns and all(f["level"] == "WA" and f["chained"] for f in funcs)


def drive(conns, requests, limit):
    """Closed loop over the connections: each sends its next request when
    the previous response arrives, until `limit` requests have been issued.
    A connection that fails is closed and left out from then on.  Returns
    [(line, t_send, t_recv, response or None)]."""
    results, lock = [], threading.Lock()
    issued = [0]

    def worker(c):
        while True:
            with lock:
                if issued[0] >= limit:
                    return
                issued[0] += 1
            line = requests()
            t0 = time.perf_counter()
            try:
                resp = c.request(line)
            except OSError:
                resp = None
            t1 = time.perf_counter()
            with lock:
                results.append((line, t0, t1, resp))
            if resp is None:
                c.close()
                return

    threads = [threading.Thread(target=worker, args=(c,)) for c in conns if not c.closed]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def edit_setup(seed):
    """Generate the base unit, start the server on an empty store and warm
    the store with the base unit.  Repeated like every set-up; the last
    server is kept for the measurement."""
    def once():
        out = fresh_dir("edit")
        # The base unit is the paper's row; the seed drives the edits.
        (base,) = gen_units(0, out, [EDIT_BASE])
        store = os.path.join(out, "store")
        srv = Server(store, os.path.join(out, "s.sock"))
        try:
            c = Conn(srv.sock)
            warm = c.request("translate " + base)
            c.close()
        except BaseException:
            srv.stop()
            raise
        return out, base, store, srv, warm
    return timed_median(once, cleanup=lambda res: res[3].stop())


def edit_serve(seed, seconds, r):
    clock = RefClock()
    setup_s, (out, base, store, srv, warm) = edit_setup(seed)
    results, rounds, busy = [], [], 0.0
    try:
        try:
            fns = len(json.loads(warm)["result"]["functions"])
        except (ValueError, KeyError):
            fns = 0
        r.check(fns > 0 and response_ok("translate " + base, warm, fns), "store warm-up failed")
        stream = EditStream(seed, base, out)
        conns = [Conn(srv.sock) for _ in range(2)]
        try:
            # Rounds of EDIT_BLOCK requests; the reference job runs between
            # rounds, while no request is in flight.
            deadline = time.perf_counter() + seconds
            while (time.perf_counter() < deadline or not rounds) and any(not c.closed for c in conns):
                t0 = time.perf_counter()
                res = drive(conns, stream.next, EDIT_BLOCK)
                dt = time.perf_counter() - t0
                results += res
                ok = len(res) == EDIT_BLOCK and all(resp is not None and response_ok(line, resp, fns)
                                                    for line, _, _, resp in res)
                rounds.append(dt if ok else MISSED)
                busy += dt
                clock.after(dt)
        finally:
            for c in conns:
                c.close()
    finally:
        heap = top_heap_mb(r, srv.stop(), "acc serve")
    r.check(len(results) >= EDIT_BLOCK * len(rounds), "a connection failed")
    checks = ok_checks = 0
    latencies = []
    for line, t0, t1, resp in sorted(results, key=lambda x: x[1]):
        ok = resp is not None and response_ok(line, resp, fns)
        r.check(ok, f"{line}: {resp[:200] if resp else 'no response'}")
        latencies.append(t1 - t0 if ok else MISSED)
        if line.startswith("check "):
            checks += 1
            ok_checks += ok
    # Untimed: a seeded sample of variants, translated without the store,
    # must match the store-backed translation.
    sample = random.Random(seed).sample(stream.variants[1:], min(SAMPLE_VARIANTS, len(stream.variants) - 1))
    for v in sample:
        _, rc1, cold, _ = run([ACC, "translate", "--no-store", v])
        _, rc2, warm_out, _ = run([ACC, "translate", "--store", store, v])
        r.check(rc1 == 0 and rc2 == 0 and cold == warm_out,
                f"{v}: store-backed output differs from --no-store")
    sizes = size_metrics(r, [base], need_wa=True)
    return {
        "setup_s": setup_s,
        "clock": clock,
        "wall_s": median(rounds),
        "peak_heap_mb": heap,
        "sizes": sizes,
        "requests": latencies,
        "ops_per_s": sum(1 for x in results if x[3] is not None) / busy,
        "verdict_ratio": ok_checks / checks if checks else 1.0,
    }


# ---------------------------------------------------------------------------
# corpus-check


CHECK_LINE = re.compile(rb"differential test: (\d+) cases, (\d+) agree, (\d+) abstraction-failed"
                        rb" \(no claim\), (\d+) skipped")


def corpus_setup(seed):
    def once():
        out = fresh_dir("corpus")
        src = os.path.join(ROOT, "corpus")
        files = sorted(f for f in os.listdir(src) if f.endswith(".c"))
        random.Random(seed).shuffle(files)
        paths = []
        for f in files:
            shutil.copy(os.path.join(src, f), os.path.join(out, f))
            paths.append(os.path.join(out, f))
        # Warm the binary and the page cache: one translation of the corpus.
        run([ACC, "translate", "--no-store"] + paths)
        return paths
    return timed_median(once)


def corpus_check(seed, seconds, r):
    clock = RefClock()
    setup_s, paths = corpus_setup(seed)
    if not paths:
        raise BenchError("corpus/ is empty")
    passes, heap, cases, agree = [], 0.0, 0, 0
    deadline = time.perf_counter() + seconds
    ops, busy = 0, 0.0
    while time.perf_counter() < deadline or not passes:
        pass_s, pass_ok = 0.0, True
        for p in paths:
            dt, rc, out, err = run([ACC, "check", "--no-store", p])
            pass_s += dt
            ops += 1
            m = CHECK_LINE.search(out)
            ok = (rc == 0 and m is not None and b"VIOLATION" not in out
                  and b"kernel: all refinement derivations re-validated" in out)
            pass_ok &= r.check(ok, f"{os.path.basename(p)}: exit {rc}: {out[-300:]!r}")
            if m:
                cases += int(m.group(1))
                agree += int(m.group(2))
            h = top_heap_mb(r, err, os.path.basename(p))
            pass_ok &= h != MISSED_HEAP_MB
            heap = max(heap, h)
            busy += dt
            clock.after(dt)
        passes.append(pass_s if pass_ok else MISSED)
    sizes = size_metrics(r, paths, need_wa=False)
    return {
        "clock": clock,
        "setup_s": setup_s,
        "wall_s": median(passes),
        "peak_heap_mb": heap,
        "sizes": sizes,
        "requests": passes,
        "ops_per_s": ops / busy,
        "verdict_ratio": agree / cases if cases else 0.0,
    }


# ---------------------------------------------------------------------------
# End-to-end report


def end_to_end(workload, seed, seconds):
    r = Run()
    m = {"table5-translate": table5, "edit-serve": edit_serve,
         "corpus-check": corpus_check}[workload](seed, seconds, r)
    reqs = m["requests"]
    clock = m["clock"]
    # Raw figures; the time metrics among them are normalized below.
    raw = {
        "setup_s": (m["setup_s"], "s"),
        "wall_s": (m["wall_s"], "s"),
        "latency_p50_ms": (finite_ms(median(reqs)), "ms"),
        "latency_p90_ms": (finite_ms(p90(reqs)), "ms"),
        "req_per_s": (m["ops_per_s"], "1/s"),
    }
    scale = clock.scale()
    metrics = {
        "setup_s": (m["setup_s"] * scale, "s"),
        "wall_s": (m["wall_s"] * scale, "s"),
        "peak_heap_mb": (m["peak_heap_mb"], "MB"),
        "spec_lines": (m["sizes"]["spec"], "lines"),
        "term_size": (m["sizes"]["term"], "nodes"),
        "guards_left": (m["sizes"]["guards"], "count"),
        "latency_p50_ms": (finite_ms(median(reqs) * scale), "ms"),
        "latency_p90_ms": (finite_ms(p90(reqs) * scale), "ms"),
        "req_per_s": (m["ops_per_s"] / scale, "1/s"),
        "verdict_ratio": (m["verdict_ratio"], "ratio"),
        "ok_ratio": ((r.attempted - r.failed) / r.attempted, "ratio"),
    }
    print(f"{workload} seed {seed}: {len(reqs)} timed requests, "
          f"{r.attempted} attempted, {r.failed} failed; reference job median "
          f"{median(clock.times):.4f} s over {len(clock.times)} timings, "
          f"times scaled by {scale:.4f}")
    for k, (v, u) in metrics.items():
        note = f"  (raw {raw[k][0]:.6f})" if k in raw else ""
        print(f"  {k:16s} {v:14.6f} {u}{note}")
    for p in r.problems:
        print("  problem:", p)
    return r, metrics


# ---------------------------------------------------------------------------
# Traced run


# Profile phases (Profile.record names inside Driver.run / check_all) and
# the per-layer metric prefix each one is reported under.
PHASES = [("parse", "parse"), ("l1", "l1"), ("l2", "l2"), ("guard_discharge", "discharge"),
          ("summary", "summary"), ("heap_abs", "hl"), ("word_abs", "wa"), ("check", "check")]
CONGRUENCE = ("eq_refl", "eq_bind", "eq_trans")


def span_self_times(trace):
    """Per span name: [calls, total s, self s] from a Chrome B/E trace."""
    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    rows, stacks = {}, {}
    for e in events:
        stack = stacks.setdefault((e["pid"], e["tid"]), [])
        if e["ph"] == "B":
            stack.append([e["name"], e["ts"], 0.0])
        elif e["ph"] == "E" and stack:
            name, t0, child = stack.pop()
            d = (e["ts"] - t0) / 1e6
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += d - child
            if stack:
                stack[-1][2] += d
    return rows


def profile_of(r, args, what):
    """`acc stats --profile-json`: {phase: entry} of one jobs-1 Driver.run
    (+ Driver.check_all)."""
    _, rc, out, err = run([ACC, "stats", "--profile-json"] + args)
    try:
        phases = json.loads(out)["phases"]
    except (ValueError, KeyError):
        phases = []
    r.check(rc == 0 and phases, f"{what}: acc stats --profile-json exit {rc}: {err[-300:]!r}")
    return {p["phase"]: p for p in phases}


def traced(workload, seed):
    """Per-layer metrics from the program's own instruments, over the same
    inputs as the workload: `acc trace` spans (self-time table and
    unattributed_s), the `acc stats --profile-json` profile of one jobs-1
    Driver.run per input (layer s and alloc_mb), `acc effort --json`
    (kernel rule counts), the runtime's GC summary of an untraced
    translation, `acc check` (differential tester) and the slow-request log
    of `acc serve` (queue and exec time)."""
    r = Run()
    out = fresh_dir("traced")
    store = os.path.join(out, "store")
    trace = os.path.join(out, "trace.json")
    if workload == "table5-translate":
        files = gen_units(seed, out, TABLE5_UNITS)
        cases, edit_session = 1, False
        serve_requests = ["translate " + f for f in files]
    elif workload == "edit-serve":
        (base,) = gen_units(0, out, [EDIT_BASE])
        stream = EditStream(seed, base, out)
        # The edit session in request order: base, then fresh edits.
        lines = [stream.next() for _ in range(40)]
        edits = [l.split(" ", 1)[1] for l in lines if l.startswith("translate ")]
        files = [base] + list(dict.fromkeys(e for e in edits if e != base))[:6]
        cases, edit_session = 2, True
        serve_requests = ["translate " + base] + lines
    else:
        src = os.path.join(ROOT, "corpus")
        files = [os.path.join(src, f) for f in sorted(os.listdir(src)) if f.endswith(".c")]
        random.Random(seed).shuffle(files)
        cases, edit_session = 100, False
        serve_requests = ["translate " + f for f in files]

    # Spans: one traced translation of every input.
    _, rc, _, err = run([ACC, "trace", "-o", trace] + files)
    r.check(rc == 0, f"acc trace exit {rc}: {err[-300:]!r}")
    _, rc, vout, _ = run([ACC, "trace", "--validate", trace])
    r.check(rc == 0, "acc trace --validate rejected the trace: " + vout.decode(errors="replace"))
    spans = span_self_times(trace) if rc == 0 else {}

    # The program's profile, the store, the GC summary and the differential
    # tester, one input at a time.
    tot = {}

    def add(k, v):
        tot[k] = tot.get(k, 0.0) + v

    for i, f in enumerate(files):
        name = os.path.basename(f)
        prof = profile_of(r, ["--no-store", f], name)
        for phase, key in PHASES:
            e = prof.get(phase, {"calls": 0, "wall_s": 0.0, "alloc_bytes": 0})
            add(key + ".s", e["wall_s"])
            add(key + ".alloc_mb", e["alloc_bytes"] / 1e6)
            add(key + ".calls", e["calls"])
        s = stats_of(r, f)
        add("funcs", s["fns"])
        add("guards_parsed", s["guards_p"])
        add("guards_left", s["guards"])
        # Store: every input cold then warm; in an edit session only the
        # base starts cold and the edits replay against what it saved.
        runs = ["warm"] if edit_session and i > 0 else ["cold", "warm"]
        for kind in runs:
            sp = profile_of(r, ["--store", store, f], name + " (store)")
            for phase in ("store_keys", "store_load", "store_replay", "store_save"):
                e = sp.get(phase, {"calls": 0, "wall_s": 0.0})
                add(phase + "_s", e["wall_s"])
                if kind == "warm":
                    add(phase + ".warm_calls", e["calls"])
        # GC counters of an untraced jobs-1 translation (exact).
        _, rc, _, err = run([ACC, "translate", "--no-store", f])
        gc = gc_summary(err)
        r.check(rc == 0 and "allocated_words" in gc, f"{name}: no GC summary at exit")
        add("gc.alloc_mb", gc.get("allocated_words", 0.0) * 8 / 1e6)
        add("gc.major_collections", gc.get("major_collections", 0.0))
        # Differential tester: acc check with cases minus without.
        if cases and not (edit_session and i > 0):
            t_cases, rc, cout, _ = run([ACC, "check", "--no-store", "--cases", str(cases), f])
            t_none, rc0, _, _ = run([ACC, "check", "--no-store", "--cases", "0", f])
            m = CHECK_LINE.search(cout)
            r.check(rc == 0 and rc0 == 0 and m is not None and b"VIOLATION" not in cout,
                    f"{name}: acc check failed: {cout[-300:]!r}")
            add("refine.s", max(0.0, t_cases - t_none))
            if m:
                add("refine.cases", int(m.group(1)))
                add("refine.skipped", int(m.group(4)))

    # Kernel rule counts over every input.
    _, rc, eout, _ = run([ACC, "effort", "--json"] + files)
    try:
        effort = json.loads(eout)
    except ValueError:
        effort = {}
    rule_apps = effort.get("total_applications", 0)
    r.check(rc == 0 and rule_apps > 0, f"acc effort exit {rc}")
    congruence = sum(effort.get("rule_applications", {}).get(k, 0) for k in CONGRUENCE)

    # The pool: the largest input at jobs 1 and jobs 2.
    largest = max(files, key=os.path.getsize)
    j1, j2 = [], []
    for _ in range(3):  # interleaved pairs
        j1.append(run([ACC, "translate", "--no-store", "--jobs", "1", largest])[0])
        j2.append(run([ACC, "translate", "--no-store", "--jobs", "2", largest])[0])

    # serve queue/exec from the server's slow-request log (--slow-ms 0 logs
    # every request); transport = client-observed minus both.
    sdir = fresh_dir("traced-serve")
    slow = os.path.join(sdir, "slow.jsonl")
    srv = Server(os.path.join(sdir, "store"), os.path.join(sdir, "s.sock"), slow_log=slow)
    try:
        it = iter(serve_requests)
        conns = [Conn(srv.sock) for _ in range(2)]
        try:
            results = drive(conns, lambda: next(it), len(serve_requests))
        finally:
            for c in conns:
                c.close()
    finally:
        srv.stop()
    for line, _, _, resp in results:
        try:
            ok = json.loads(resp).get("ok") is True
        except (TypeError, ValueError):
            ok = False
        r.check(ok, f"serve: {line}")
    recs = []
    if os.path.exists(slow):
        with open(slow) as f:
            recs = [json.loads(x) for x in f if x.strip()]
    r.check(len(recs) == len(results), "slow log does not cover every request")
    n = max(1, len(recs))
    queue_ms = sum(x["queue_ms"] for x in recs) / n
    exec_ms = sum(x["latency_ms"] for x in recs) / n
    client_ms = 1000 * sum(t1 - t0 for _, t0, t1, _ in results) / max(1, len(results))

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for _, key in PHASES:
        metrics[key + ".s"] = (tot[key + ".s"], "s")
        metrics[key + ".alloc_mb"] = (tot[key + ".alloc_mb"], "MB")
        if key == "l2":
            metrics["l2.convs_per_func"] = (ratio(tot["l2.calls"], tot["funcs"]), "ratio")
        if key == "discharge":
            metrics["discharge.guard_ratio"] = (
                ratio(tot["guards_parsed"] - tot["guards_left"], tot["guards_parsed"]), "ratio")
    metrics.update({
        "kernel.rule_apps": (rule_apps, "count"),
        "kernel.congruence_share": (ratio(congruence, rule_apps), "ratio"),
        "store.keys_s": (tot["store_keys_s"], "s"),
        "store.load_s": (tot["store_load_s"], "s"),
        "store.replay_s": (tot["store_replay_s"], "s"),
        "store.save_s": (tot["store_save_s"], "s"),
        # Over the warm runs: every entry replayed is a hit, every load a lookup.
        "store.hit_ratio": (ratio(tot["store_replay.warm_calls"], tot["store_load.warm_calls"]),
                            "ratio"),
        "serve.queue_ms": (queue_ms, "ms"),
        "serve.exec_ms": (exec_ms, "ms"),
        "serve.transport_ms": (client_ms - queue_ms - exec_ms, "ms"),
        "refine.s": (tot.get("refine.s", 0.0), "s"),
        "refine.skipped_share": (ratio(tot.get("refine.skipped", 0), tot.get("refine.cases", 0)),
                                 "ratio"),
        "pool.jobs2_speedup": (ratio(median(j1), median(j2)), "ratio"),
        "gc.alloc_mb": (tot["gc.alloc_mb"], "MB"),
        "gc.major_collections": (tot["gc.major_collections"], "count"),
        # Time inside Driver.run that no phase span covers.
        "unattributed_s": (spans.get("driver.run", [0, 0.0, 0.0])[2], "s"),
    })
    sources = {"kernel": "acc effort --json", "serve": "acc serve --slow-log",
               "refine": "acc check, cases minus --cases 0", "pool": "acc translate --jobs 1 / 2",
               "gc": "GC summary of acc translate", "unattributed_s": "acc trace spans",
               "store": "acc stats --profile-json --store"}

    print(f"{workload} seed {seed}: traced run over {len(files)} input(s), "
          f"{int(tot['funcs'])} functions, {int(tot.get('refine.cases', 0))} differential cases")
    print(f"  {'span (acc trace)':18s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name, (calls, total, self_s) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        label = "unattributed_s" if name == "driver.run" else name
        print(f"  {label:18s} {calls:7d} {total:10.4f} {self_s:10.4f}")
    for k, (v, u) in metrics.items():
        src = sources.get(k, sources.get(k.split(".")[0], "acc stats --profile-json"))
        print(f"  {k:24s} {v:16.6f} {u:6s} [{src}]")
    for p in r.problems:
        print("  problem:", p)
    return r, metrics


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["table5-translate", "edit-serve", "corpus-check"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        if a.trace:
            r, metrics = traced(a.workload, a.seed)
        else:
            r, metrics = end_to_end(a.workload, a.seed, a.seconds)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
    print(json.dumps({
        "correct": r.failed == 0 and bool(metrics),
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
