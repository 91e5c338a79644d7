#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload fixpoint-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Everything the build and the run write
stays under .bench_build/ in the checkout: the Go build cache, the
binary, and one provenance record per run (records/). The arguments are
passed to the benchmark binary unchanged; see README.md for what it
measures. Exits non-zero without printing a result when the sources are
missing or do not build.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def find_go():
    go = shutil.which("go")
    if go:
        return go
    for root in (os.environ.get("GOROOT", ""), "/usr/local/go"):
        cand = os.path.join(root, "bin", "go") if root else ""
        if cand and os.access(cand, os.X_OK):
            return cand
    return None


def go_env():
    """Confine the Go toolchain's caches, config and temp files to BUILD."""
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/config",
        "XDG_CACHE_HOME": "home/cache",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(
        {
            "GOFLAGS": "-buildvcs=false",
            "GOPROXY": "off",
            "GOTOOLCHAIN": "local",
            "GOENV": "off",
            "CGO_ENABLED": "0",
        }
    )
    return env


def commit():
    """The git commit when the checkout is a repository, else a digest of
    the Go sources and module files."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run(cmd, env, cwd, timeout, stdout=None):
    """Run cmd (stdout inherited unless redirected) in its own process
    group and return its exit status; on timeout or interruption kill
    the whole group (the benchmark may have child processes running)
    and wait for cmd."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=stdout, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124
    except BaseException:
        kill()
        raise


def main():
    # A SIGTERM raises SystemExit inside run(), which then kills the
    # benchmark's process group before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    go = find_go()
    if go is None:
        print("perfbench: no Go toolchain on PATH", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print(f"perfbench: {ROOT} holds no Go module to benchmark", file=sys.stderr)
        return 2
    env = go_env()
    # Build with stdout sent to stderr, so standard output carries only
    # the benchmark's own lines.
    rc = run([go, "build", "-o", BINARY, "."], env, os.path.join(ROOT, "perfbench"),
             BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc or 1
    args = sys.argv[1:] + ["--commit", commit(), "--out", os.path.join(BUILD, "records")]
    return run([BINARY] + args, env, ROOT, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
