"""One benchmark child: the meanforce CLI in a fresh interpreter.

    python perfbench/child.py STAMP [--setup-only | --trace SPANS] -- CLI-ARGS...

It imports `meanforce.cli`, loads the config named by `--config` and writes
the monotonic clock to STAMP: that instant ends set-up.  Then it runs
`meanforce.cli.main(CLI-ARGS)` and exits with its code, as
`python -m meanforce.cli CLI-ARGS` would.  `--setup-only` exits right after
the stamp; `--trace` installs the outside-in tracer before `main` and writes
its spans and aggregates to SPANS.
"""

import os
import sys
import time


def main():
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    stamp = opts[0]

    import meanforce.cli as cli

    cli.load_config(cli_args[cli_args.index("--config") + 1])
    t_setup = time.monotonic()
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(repr(t_setup))
    if "--setup-only" in opts:
        os._exit(0)  # skip interpreter teardown: a probe measures set-up only
    if "--trace" not in opts:
        return cli.main(cli_args)

    import tracer as tracing

    tr = tracing.install(run_id=os.path.basename(stamp))
    t0 = tr.clock()
    code = cli.main(cli_args)
    t1 = tr.clock()
    caches = {}
    for name in ("bath._lamb_shift_cached", "bath._integrated_matrices_cached"):
        info = tr.originals[name].cache_info()
        caches[name] = {"hits": info.hits, "misses": info.misses}
    tr.counters["caches"] = caches
    tr.dump(opts[opts.index("--trace") + 1], t0, t1)
    return code


if __name__ == "__main__":
    sys.exit(main())
