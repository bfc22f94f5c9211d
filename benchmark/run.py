#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

    python3 benchmark/run.py --workload <mlp-digits|vgg-objects> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The runner is built from source with the
repository's own `[profile.release]` settings (read from the root
`Cargo.toml` and passed to Cargo as `--config` overrides, since the
benchmark is a workspace of its own) and from the repository root, so
`.cargo/config.toml` applies too. The build goes to `$CARGO_TARGET_DIR`,
or `benchmark/target`. With `--trace 1` the spans are written as JSON lines
to `<target dir>/spans/<workload>-<seed>.jsonl`.

The last line of standard output is the runner's JSON result; the exit code
is the runner's (nonzero when a check failed).
"""

import json
import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run itself must end well inside the 180 s a run is given.
RUN_TIMEOUT_S = 170


def release_profile_flags():
    """The root manifest's [profile.release] as Cargo --config overrides."""
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("benchmark: run from a checkout of the repository (no Cargo.toml/crates)")
    with open(manifest, "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    flags = []
    for key, value in profile.items():
        flags += ["--config", f"profile.release.{key}={json.dumps(value)}"]
    return flags


def main():
    flags = release_profile_flags()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ] + flags
    built = subprocess.run(build, cwd=ROOT, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"benchmark: build failed ({built.returncode})")

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]:
        spans = os.path.join(target, "spans")
        os.makedirs(spans, exist_ok=True)
        name = args[args.index("--workload") + 1] if "--workload" in args else "run"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "default"
        args += ["--spans", os.path.join(spans, f"{name}-{seed}.jsonl")]
    exe = os.path.join(target, "release", "superbnn-benchmark")
    with subprocess.Popen([exe] + args, cwd=ROOT) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"benchmark: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
