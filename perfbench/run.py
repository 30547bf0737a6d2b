"""Cold-process benchmark of the meanforce CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/meanforce`).  The run
writes the seeded JSON config of the workload and then drives a closed loop
with one client: each operation is a fresh interpreter running the CLI on
that config, started only after the previous one has exited, for about S
seconds.  The CLI runs with `--threads 1` and BLAS/OpenMP pinned
to one thread.  Every child starts with empty `lru_cache`s, which is the
cost every CLI user pays.

Workloads (see `workloads.py` for the inputs):
  qubit_sweep   `corrections` on the reference qubit over 20 beta*w0 points
  steady_d4     `steadystate` on a seeded d=4 system, 13 Bohr frequencies
  evolve_d4     `evolve` on the same system, cumulant/redfield/davies at t=2, 10
  validate_tls  full `validate`, oracle included; criterion 8 fails by design,
                so 1 of its 19 operations fails at every seed
BENCHMARK.json lists qubit_sweep and evolve_d4: one is all QUADPACK, the
other all finite-time panel transforms, so each bypasses the other's layer.

With `--trace 0` it reports:
  wall_s        child spawn to exit, the mean over the run's children (the
                measured time over the operations done); children switch
                between fast and slow host CPU states, and the mean drifts
                less between runs than the median does
  setup_s       child spawn until `import meanforce.cli` has returned and the
                config is loaded, the median over the run's children and
                set-up-only children
  peak_rss_mb   the child's maximum resident set from os.wait4, the median
With `--trace 1` it alternates an untraced and a traced child and reports
the per-layer metrics of the traced ones (see `tracer.py`).

Every child's output goes through the correctness gate (`gate.py`).  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it repeat every metric
with its unit, the failed fraction and the run's provenance.  Everything the
run writes goes to `.perfbench_out/` in the current directory.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2
HARD_LIMIT_S = 160.0
EXT = {"validate_tls": "txt"}
OK_EXIT = {"validate_tls": (0, 1)}  # validate exits 1 when a check fails


def _median(xs):
    return float(statistics.median(xs))


class Runner:
    def __init__(self, root, workload, seed, outdir):
        self.root = root
        self.workload = workload
        self.outdir = outdir
        self.t_start = time.monotonic()
        self.n = 0
        self.cfg_path = os.path.join(outdir, "config.json")
        cfg = workloads.make_config(workload, seed, os.path.join(outdir, "out"))
        with open(self.cfg_path, "wb") as fh:
            fh.write(workloads.config_bytes(cfg))
        self.cfg = cfg
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def child(self, mode=""):
        """Run one child to completion; return its measurements."""
        self.n += 1
        tag = f"c{self.n:03d}"
        stamp = os.path.join(self.outdir, tag + ".stamp")
        out = os.path.join(self.outdir, f"{tag}.{EXT.get(self.workload, 'csv')}")
        spans = os.path.join(self.outdir, tag + ".spans.json")
        opts = {"setup": ["--setup-only"], "trace": ["--trace", spans]}.get(mode, [])
        cmd = [sys.executable, os.path.join(HERE, "child.py"), stamp, *opts, "--",
               workloads.TASK[self.workload], "--config", self.cfg_path,
               "--out", out, "--threads", "1"]
        remaining = HARD_LIMIT_S - (time.monotonic() - self.t_start)
        with open(os.path.join(self.outdir, tag + ".log"), "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            watchdog = threading.Timer(max(remaining, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                watchdog.join()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(stamp, encoding="utf-8") as fh:
                setup = float(fh.read()) - t0
        except (OSError, ValueError):
            setup = None
        return {"wall": t1 - t0, "setup": setup, "rss_mb": usage.ru_maxrss / 1024.0,
                "cpu": usage.ru_utime + usage.ru_stime,
                "code": proc.returncode, "out": out, "spans": spans if mode == "trace" else None}

    def loop(self, seconds, traced):
        """Closed loop: children (or untraced/traced pairs) for about `seconds`.

        Another child starts only if half of its expected duration still fits,
        so a run measures `seconds` on average, whatever the child's length.
        """
        self.child("setup")  # warm-up: byte-compile and page in, not measured
        probes = [self.child("setup") for _ in range(SETUP_PROBES)]
        runs = []
        steps = []
        first = time.monotonic()
        while True:
            t = time.monotonic()
            runs.append(self.child())
            if traced:
                runs.append(self.child("trace"))
            now = time.monotonic()
            steps.append(now - t)
            step = _median(steps)
            if now - first + 0.5 * step >= seconds \
                    or now - self.t_start + max(steps) > HARD_LIMIT_S:
                break
        return probes, runs


def _gate_outputs(workload, seed, runs, cfg_hash):
    """Gate every child's output; identical outputs share one verdict."""
    tally = gate.Tally()
    manifest = os.path.join(gate.REFERENCE, "manifest.json")
    with open(manifest, encoding="utf-8") as fh:
        ref_hash = json.load(fh)[workload]["config_sha256"]
    if seed == 0 and ref_hash != cfg_hash:
        tally.op(False, "seed-0 config differs from the one the reference was made from")
    verdicts = {}
    for r in runs:
        try:
            with open(r["out"], "rb") as fh:
                key = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            key = None
        if key is None or r["code"] not in OK_EXIT.get(workload, (0,)):
            key = None
        if key not in verdicts:
            one = gate.Tally()
            if key is None:
                for _ in range(gate.EXPECTED_OPS[workload]):
                    one.op(False, f"child exited {r['code']} without a usable output")
            else:
                try:
                    gate.GATES[workload](r["out"], seed, one)
                except (OSError, ValueError, IndexError) as exc:
                    one = gate.Tally()
                    for _ in range(gate.EXPECTED_OPS[workload]):
                        one.op(False, f"output unreadable: {exc}")
            verdicts[key] = one
        one = verdicts[key]
        tally.attempted += one.attempted
        tally.failed += one.failed
        tally.notes += [n for n in one.notes if n not in tally.notes][:10]
    return tally


def _git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _source_hash(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "meanforce")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _getconf(name):
    try:
        res = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(res.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def provenance(root, workload, seed, cfg_hash):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "config_sha256": cfg_hash,
        **workloads.describe(workload, seed),
        "git_commit": _git_commit(root),
        "source_sha256": _source_hash(root),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "loop": "closed, 1 client, 1 child process per operation, --threads 1",
    }


def end_to_end(probes, runs):
    setups = [r["setup"] for r in probes + runs if r["setup"] is not None]
    return {
        "wall_s": (statistics.fmean([r["wall"] for r in runs]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([r["rss_mb"] for r in runs]), "MB"),
    }


def per_layer(runs):
    import layers

    plain = [r["wall"] for r in runs if r["spans"] is None]
    traced = [r for r in runs if r["spans"] is not None]
    samples = [layers.metrics(r["spans"]) for r in traced]
    for s, r in zip(samples, traced):
        s["trace.wall_s"] = r["wall"]
        s["trace.overhead_s"] = r["wall"] - _median(plain)
    return {name: (_median([s[name] for s in samples]), unit)
            for name, unit in layers.METRICS}, samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "meanforce", "cli.py")):
        print("error: run from the root of a meanforce checkout (src/meanforce/cli.py not found)",
              file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench_out",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)

    runner = Runner(root, args.workload, args.seed, outdir)
    cfg_hash = workloads.config_hash(runner.cfg)
    probes, runs = runner.loop(args.seconds, bool(args.trace))
    if any(r["setup"] is None for r in probes):
        print("error: a set-up-only child failed; see " + outdir, file=sys.stderr)
        return 1

    sys.path.insert(0, os.path.join(root, "src"))
    tally = _gate_outputs(args.workload, args.seed, runs, cfg_hash)
    if args.trace:
        metrics, samples = per_layer(runs)
    else:
        metrics, samples = end_to_end(probes, runs), []
    prov = provenance(root, args.workload, args.seed, cfg_hash)
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    correct = tally.attempted > 0 and tally.failed == 0

    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed}: {len(runs)} children, "
          f"{len(probes)} set-up probes, trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        import layers

        metrics = {name: metrics[name] for name in layers.PER_LAYER}
    print(f"failed_frac = {frac:.6g} 1 ({tally.failed}/{tally.attempted})")
    for note in tally.notes:
        print(f"# failed: {note}")
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "probes": probes, "children": runs,
                   "trace_samples": samples,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "attempted": tally.attempted, "failed": tally.failed}, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
