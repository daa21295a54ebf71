#!/usr/bin/env python3
"""A call census of ``src/repro``: which functions no shipped entry point runs.

The census installs a ``sys.setprofile``/``threading.setprofile`` hook
*before* it imports ``repro`` (so import-time calls such as the policy
registry's ``register`` count), then drives the simulator in this
process through every CLI subcommand, all policies on the three paper
workloads, the cache geometries under policies A and F, the SMP, fault
injection, conformance and trace modes, the farm (``--jobs 2`` and a
result cache), every example and the eight tiny end-to-end benchmark
passes.  Every function defined under ``src/repro`` whose code never ran
is printed, in two groups:

* *no caller* — no code under ``tests/`` or ``src/`` names it;
* *test callers only* — a test names it, or ``src/`` code does only on
  a path none of the invocations took.

Callers are found by name (an ``owner.attr`` pair for a module-level
function, the attribute name for a method, the class name for a dunder
method), so the split errs toward "has callers": a common method name
such as ``run`` hides a caller-less method in the second group.  A
function nested in one that never ran is counted with it.  Abstract
methods and the names on :data:`BLIND_SPOTS` (code a census in
one process cannot reach, or that the project keeps on purpose) are
left out of both groups.

Run from the repository root (no ``PYTHONPATH`` needed)::

    python benchmarks/census.py            # print both groups and totals
    python benchmarks/census.py --check    # exit 1 if 'no caller' is not empty

Any invocation that raises makes the census exit 2.  Files it writes go
to a temporary directory that is removed at the end.  It adds nothing
to ``src/``: no hook, no flag, no environment variable.
"""

from __future__ import annotations

import sys
import threading

_SEEN: set = set()


def _profile(frame, event, arg):
    if event == "call":
        _SEEN.add(frame.f_code)


# Before anything below imports repro: import-time calls count too.
sys.setprofile(_profile)
threading.setprofile(_profile)

import argparse  # noqa: E402
import ast  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fnmatch import fnmatchcase  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
sys.path[:0] = [str(SRC), str(ROOT / "benchmarks" / "e2e")]

#: Functions the census reports neither way, as ``module:qualname``
#: patterns (``fnmatch`` syntax), each group with the reason it cannot or
#: need not run here.
BLIND_SPOTS = (
    # Pool workers run in child processes, which the profiler does not
    # follow; the parent-side fault paths need a worker to die or hang.
    "repro.farm.executor:_worker_main",
    "repro.farm.executor:_Worker.kill",
    "repro.farm.executor:Executor._degrade",
    "repro.farm.executor:Executor._retry",
    "repro.farm.executor:Executor._requeue_unstarted",
    # Error and fault-recovery paths: they run on bad input, a corrupt
    # cache entry or a consistency divergence, which no shipped
    # invocation produces.
    "repro.core.bitvector:BitVector._check",
    "repro.hw.cache:_check_run_length",
    "repro.farm.cache:ResultCache._discard_poisoned",
    "repro.*:*Divergence.__str__",
    "repro.conformance.lockstep:ObservedEvent.__str__",
    # Debugging aids: they run when a person or a failing assertion
    # prints the object.
    "repro.*:*.__repr__",
    "repro.*:*.__str__",
    # Copy-on-write: every spawn execs before any write, so no shipped
    # workload faults on a COW page; DESIGN.md keeps it.
    "repro.kernel.kernel:Kernel._resolve_cow",
    # The exhaustive checker's sharding, kept for sharded prefix runs.
    "repro.core.exhaustive:shard_prefixes",
    "repro.core.exhaustive:merge_reports",
)

# ---- the invocations ---------------------------------------------------------


def _cli(*argv):
    from repro.cli import main

    return main([str(a) for a in argv])


def _example(name, *argv):
    saved = sys.argv
    sys.argv = [name, *map(str, argv)]
    try:
        runpy.run_path(str(ROOT / "examples" / name), run_name="__main__")
    finally:
        sys.argv = saved


def _default_cache(tmp, thunk):
    """Run ``thunk`` with the farm's default cache root inside ``tmp``."""
    saved = os.environ.get("REPRO_FARM_CACHE")
    os.environ["REPRO_FARM_CACHE"] = str(tmp / "default-cache")
    try:
        thunk()
    finally:
        if saved is None:
            del os.environ["REPRO_FARM_CACHE"]
        else:
            os.environ["REPRO_FARM_CACHE"] = saved


def _e2e_pass(workload, traced):
    import harness

    latex = (("latex-paper", "A"), ("latex-paper", "F"))
    sizes = {"serve-read": {"users": 160}, "serve-write": {"users": 160},
             "paper-live": {"pairs": latex, "rounds": 2},
             "paper-replay": {"pairs": latex, "rounds": 2}}[workload]
    record = harness.run_pass(workload, 3, traced, **sizes)
    if record["failed"]:
        raise RuntimeError(f"{workload}: {record['errors'][:3]}")


WORKLOADS = ("afs-bench", "latex-paper", "kernel-build")
GEOMETRIES = ("1way", "2way", "4way+victim8", "2way+l2:256k/4",
              "victim8+l2", "wt", "pi")


def invocations(tmp: Path) -> list:
    """(label, thunk) for every entry point the census drives."""
    from repro.policy import all_policies

    def path(name):
        return tmp / name

    cache = path("farm-cache")
    specs = path("batch.jsonl")
    # One spec of each kind the CLI's own batches do not cover, and a
    # job that fails.
    specs.write_text(
        '{"kind":"workload","params":{"workload":"latex-paper",'
        '"policy":"F","scale":0.1}}\n'
        '{"kind":"explore","params":{"seed":1,"sequences":5}}\n'
        '{"kind":"exhaustive","params":{"num_cache_pages":2,"depth":2,'
        '"model":"pi"}}\n'
        '{"kind":"selftest","params":{"mode":"ok","value":1}}\n'
        '{"kind":"selftest","params":{"mode":"raise"}}\n')
    calls = [
        ("table1", lambda: _cli("table1", "--scale", 0.1)),
        ("table2", lambda: _cli("table2")),
        ("table4", lambda: _cli("table4", "--scale", 0.1, "--chart")),
        ("table5", lambda: _cli("table5", "--scale", 0.1)),
        ("micro", lambda: _cli("micro", "--iterations", 500)),
        ("policies", lambda: _cli("policies")),
        ("all", lambda: _cli("all", "--scale", 0.05)),
    ]
    for policy in all_policies():
        for workload in WORKLOADS:
            calls.append((f"run {workload} --policy {policy.name}",
                          lambda w=workload, p=policy.name:
                          _cli("run", w, "--policy", p, "--scale", 0.1)))
    for geometry in GEOMETRIES:
        for policy in ("A", "F"):
            calls.append((f"run --geometry {geometry} --policy {policy}",
                          lambda g=geometry, p=policy:
                          _cli("run", "kernel-build", "--policy", p,
                               "--scale", 0.1, "--geometry", g)))
    calls += [
        ("run --cpus 2", lambda: _cli("run", "kernel-build", "--scale", 0.1,
                                      "--cpus", 2, "--conform")),
        ("run --cpus 4", lambda: _cli("run", "afs-bench", "--scale", 0.1,
                                      "--cpus", 4)),
        ("run --inject", lambda: _cli("run", "latex-paper", "--scale", 0.1,
                                      "--inject", "pmap.flush.drop:0.5",
                                      "--seed", 3)),
        ("run --inject fail-stop",
         lambda: _cli("run", "latex-paper", "--scale", 0.1,
                      "--inject", "disk.read.missing")),
        ("run --conform --trace-events",
         lambda: _cli("run", "latex-paper", "--scale", 0.1, "--conform",
                      "--trace-events", path("run-events.jsonl"))),
        ("run --list-points", lambda: _cli("run", "afs-bench",
                                           "--list-points")),
        ("chaos", lambda: _cli("chaos", "--plans", 2, "--preset", "all",
                               "--steps", 60, "--no-cache")),
        ("chaos --cpus 4", lambda: _cli("chaos", "--plans", 3, "--preset",
                                        "snoop", "--steps", 60, "--cpus", 4,
                                        "--no-cache")),
        ("chaos --policy rlt", lambda: _cli("chaos", "--plans", 2, "--steps",
                                            60, "--policy", "rlt",
                                            "--no-cache")),
        ("chaos --jobs 2", lambda: _cli("chaos", "--plans", 2, "--steps", 60,
                                        "--jobs", 2, "--no-cache")),
        ("smp", lambda: _cli("smp", "--cache-dir", cache,
                             "--out", path("smp.json"))),
        ("serve", lambda: _cli("serve", "--cohorts", 2, "--users-per-cohort",
                               40, "--conform", "--no-cache",
                               "--out", path("serve.json"))),
        ("conform", lambda: _cli("conform", "--sequences", 20, "--scale",
                                 0.05, "--no-cache")),
    ]
    for mutant in ("skip-dma-read-flush", "drop-stale-on-dma-write",
                   "unconditional-will-overwrite"):
        calls.append((f"conform --mutant {mutant}",
                      lambda m=mutant: _cli("conform", "--mutant", m,
                                            "--sequences", 20, "--no-cache")))
    calls += [
        ("sweep --cache-dir", lambda: _cli(
            "sweep", "--sizes", "32,64", "--scale", 0.1, "--cache-dir",
            cache, "--out", path("sweep.json"), "--trace-events",
            path("farm-events.jsonl"))),
        ("sweep --cache-dir (hits)", lambda: _cli(
            "sweep", "--sizes", "32,64", "--scale", 0.1, "--cache-dir",
            cache)),
        ("sweep --jobs 2", lambda: _cli(
            "sweep", "--sizes", "32", "--scale", 0.1, "--jobs", 2,
            "--cache-dir", path("pool-cache"))),
        ("farm run", lambda: _cli("farm", "run", "--specs", specs,
                                  "--cache-dir", cache,
                                  "--out", path("outcomes.jsonl"))),
        ("farm stats", lambda: _cli("farm", "stats", "--cache-dir", cache)),
        ("farm stats (default cache)", lambda: _default_cache(
            tmp, lambda: _cli("farm", "stats"))),
        ("farm gc", lambda: _cli("farm", "gc", "--cache-dir", cache)),
        ("farm clear", lambda: _cli("farm", "clear", "--cache-dir", cache)),
        ("trace events", lambda: _cli("trace", "events", "afs-bench",
                                      "--scale", 0.1, "--out",
                                      path("events.jsonl"))),
        ("trace events --diff", lambda: _cli(
            "trace", "events", "afs-bench", "--scale", 0.1, "--diff",
            path("events.jsonl"))),
        ("trace compile", lambda: _cli("trace", "compile", "latex-paper",
                                       "--scale", 0.1, "--policy", "A",
                                       "--out", path("a.trace"))),
        ("trace compile --trace-events --conform", lambda: _cli(
            "trace", "compile", "kernel-build", "--scale", 0.1,
            "--trace-events", "--conform", "--out", path("e.trace"))),
        ("trace compile --inject", lambda: _cli(
            "trace", "compile", "latex-paper", "--scale", 0.1, "--inject",
            "pmap.flush.drop:0.5", "--out", path("i.trace"))),
        ("trace replay", lambda: _cli("trace", "replay", path("a.trace"))),
        ("trace replay --events-out", lambda: _cli(
            "trace", "replay", path("e.trace"), "--events-out",
            path("replayed.jsonl"))),
        ("metrics", lambda: _cli("metrics", "--iterations", 500)),
        ("metrics --format prom", lambda: _cli(
            "metrics", "latex-paper", "--scale", 0.1, "--policy", "rlt",
            "--format", "prom")),
        ("profile", lambda: _cli("profile", "afs-bench", "--scale", 0.1,
                                 "--policy", "A")),
    ]
    for name in sorted(p.name for p in (ROOT / "examples").glob("*.py")):
        args = (0.05,) if name == "policy_comparison.py" else ()
        calls.append((f"example {name}",
                      lambda n=name, a=args: _example(n, *a)))
    for workload in ("serve-read", "serve-write", "paper-live",
                     "paper-replay"):
        for traced in (False, True):
            calls.append((f"e2e {workload} traced={int(traced)}",
                          lambda w=workload, t=traced: _e2e_pass(w, t)))
    return calls


def drive(tmp: Path) -> list[str]:
    """Run every invocation; returns the labels of those that raised."""
    errors = []
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for label, thunk in invocations(tmp):
            started = time.perf_counter()
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(out):
                    thunk()
            except SystemExit:
                pass                # an exit status is an outcome here
            except Exception:
                errors.append(label)
                print(f"census: {label} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
            print(f"  {time.perf_counter() - started:6.2f}s  {label}",
                  file=sys.stderr)
    finally:
        os.chdir(cwd)
    return errors


# ---- the report --------------------------------------------------------------


def _abstract(node) -> bool:
    """An ``abstractmethod``, or a body that only raises
    ``NotImplementedError``: code that exists to be overridden."""
    if any(ast.unparse(d).endswith("abstractmethod")
           for d in node.decorator_list):
        return True
    body = node.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]                     # the docstring
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def _functions():
    """(module, qualname, node, enclosing function's qualname or None)
    for every function defined under src/repro."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_of(path)

        def walk(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    yield module, qualname, path, child, parent
                    yield from walk(child, qualname + ".", qualname)
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, f"{prefix}{child.name}.", parent)
                else:
                    yield from walk(child, prefix, parent)

        yield from walk(ast.parse(path.read_text(), str(path)), "", None)


class _References:
    """What a body of code names: plain names (per module), attribute
    names, ``owner.attr`` pairs and ``from module import name`` pairs."""

    def __init__(self, paths):
        self.names: dict = {}
        self.attrs, self.pairs, self.imports = set(), set(), set()
        for path in paths:
            names = self.names.setdefault(_module_of(path), set())
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    self.attrs.add(node.attr)
                    owner = node.value
                    if isinstance(owner, (ast.Name, ast.Attribute)):
                        self.pairs.add((getattr(owner, "id", None)
                                        or owner.attr, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module:
                    self.imports.update((node.module, alias.name)
                                        for alias in node.names)
        self.any_names = set().union(*self.names.values())

    def call(self, module: str, qualname: str) -> bool:
        """Whether this code could call ``module:qualname``."""
        *owners, name = qualname.split(".")
        if not owners:                      # a module-level function
            return (name in self.names.get(module, ())
                    or (module.rsplit(".", 1)[-1], name) in self.pairs
                    or any((module == m or module.startswith(m + "."))
                           and name == n for m, n in self.imports))
        if name.startswith("__"):           # called implicitly: the class
            return owners[0] in self.any_names  # must at least be named
        return name in self.attrs or name in self.names.get(module, ())


def _module_of(path: Path) -> str:
    if path.is_relative_to(SRC):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        return module.removesuffix(".__init__")
    return str(path)


def _blind(module: str, qualname: str) -> bool:
    return any(fnmatchcase(f"{module}:{qualname}", pattern)
               for pattern in BLIND_SPOTS)


def census(seen) -> dict:
    """Every never-run function outside the blind spots, grouped; a
    function nested in one that never ran is counted with it."""
    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno)
           for code in seen}
    tests = _References((ROOT / "tests").rglob("*.py"))
    src = _References(PACKAGE.rglob("*.py"))
    total = 0
    never: set = set()
    groups: dict = {"no caller": [], "test callers only": []}
    for module, qualname, path, node, parent in _functions():
        total += 1
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if (os.path.realpath(path), first) in ran or _abstract(node):
            continue
        never.add((module, qualname))
        if (module, parent) in never or _blind(module, qualname):
            continue
        called = (tests.call(module, qualname)
                  or not qualname.split(".")[-1].startswith("__")
                  and src.call(module, qualname))
        group = "test callers only" if called else "no caller"
        groups[group].append((f"{module}:{qualname}",
                              node.end_lineno - node.lineno + 1))
    return {"functions": total, "groups": groups}


def _import_everything() -> None:
    """Import every module of the package, so that import-time code
    (registries, tables built at import) counts as run."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            __import__(info.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a never-run function has no caller")
    args = parser.parse_args(argv)
    _import_everything()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        errors = drive(Path(tmp))
    sys.setprofile(None)
    threading.setprofile(None)
    report = census(_SEEN)
    never = lines = 0
    for group, rows in report["groups"].items():
        never += len(rows)
        lines += sum(n for _, n in rows)
        print(f"{group}: {len(rows)} functions, "
              f"{sum(n for _, n in rows)} lines")
        for qualname, n in rows:
            print(f"  {n:4d}  {qualname}")
    print(f"census: {report['functions']} functions in src/repro; "
          f"{never} never ran ({lines} lines) outside the known blind spots")
    if errors:
        print(f"census: {len(errors)} invocations raised: "
              f"{', '.join(errors)}", file=sys.stderr)
        return 2
    if args.check and report["groups"]["no caller"]:
        print("census: functions with no caller (delete them, call them, "
              "or add them to BLIND_SPOTS with a reason)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
