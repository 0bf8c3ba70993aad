"""One `nncift pipeline` run in a fresh process, measured from inside it.

    python3 perfbench/child.py --config CFG --out DIR --result RESULT.json \
        --spawned T [--setup-only] [--trace TRACE.jsonl]

`--spawned` is the parent's time.monotonic() just before it started this
process; the clock is system-wide, so setup_s counts interpreter start,
`import nncift` and resolve_config. pipeline_s is the wall time of the
CLI's `pipeline` command. With --trace, spans around calls into every
nncift module are recorded and summarised into the result, and the raw
spans go to the trace file, all after the timed region.
"""

import argparse
import json
import resource
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    from nncift import cli

    config = cli.resolve_config(cli.read_config_file(args.config), out_override=args.out)
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        pipeline = cli.main
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            pipeline = tracer.wrap("cli.pipeline", cli.main)
        start = time.perf_counter()
        exit_code = pipeline(["pipeline", "--config", args.config, "--out", args.out])
        result["pipeline_s"] = time.perf_counter() - start
        result["exit_code"] = exit_code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["epochs"] = config.train_config().epochs
        if args.trace:
            result["layers"] = spans.layer_metrics(tracer.spans)
            with open(args.trace, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps([span.sid, span.parent, span.name, span.start,
                                         span.end, span.count]) + "\n")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    raise SystemExit(main())
