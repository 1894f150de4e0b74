"""Reachability probe: which functions under ``src/repro`` does an entry point call?

Run it by hand from the repository root; it takes no options::

    python tests/reach/driver.py

It exports the committed tree (``git archive HEAD``) into a temporary
directory, so the checkout and its ``benchmarks/results/`` are never
touched, and runs a fixed entry list there: the examples, the paper
benches, the perf harness's quick passes, both smokes and a list of CLI
invocations, including one live ``repro serve`` round that restarts the
server over a job whose only snapshot it has torn.  Every process
runs under a profile hook (a generated ``sitecustomize.py`` first on
``PYTHONPATH``) that appends each ``src/repro`` function to a per-pid
file, line-buffered, the first time it is called: a multiprocessing
child that leaves through ``os._exit`` or is SIGKILLed has already
written what it ran.  Calls are keyed by (file, first line) and mapped
to the top-level ``def``s and class methods of the AST, counting
decorator lines.

The same hook takes a census of settable values: for every defaulted
parameter of those functions (looked up by ``(file, first line)`` in a
table the driver writes from the AST) and every field of the
:data:`CONFIGS` dataclasses (through their generated ``__init__``), it
appends each new value it sees, up to 8 per parameter.

It writes ``tests/reach/REPORT.md`` in the checkout: functions and lines
per package, reached and unreached, every unreached function with the
``tests/reach/allowlist.txt`` entry that covers it, and every
single-valued parameter with its ``tests/reach/knobs.txt`` entry.  A
full run takes about 8.5 minutes on two cores.
"""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
REPORT = HERE / "REPORT.md"
ALLOWLIST = HERE / "allowlist.txt"
KNOBS = HERE / "knobs.txt"
CATEGORIES = ("oracle", "pinned", "roadmap", "handler", "accessor")
KNOB_CATEGORIES = ("pinned", "cli", "deployment", "oracle", "roadmap")
# The config dataclasses whose fields the census counts, as parameters.
CONFIGS = ("MDParams", "GSEParams", "JobSpec", "ServeConfig", "RoutedConfig", "RecoveryPolicy")

HOOK = '''\
import json
import os
import sys
import threading

_OUT = {out!r}
_SRC = {src!r}
# "file:line" of every function and method -> its defaulted parameters.
with open({track!r}) as _f:
    _TRACK = json.load(_f)
_CONFIGS = {configs!r}
_SCALARS = (bool, int, float, complex, str, bytes, type(None))
_MAX_VALUES = 8
_seen = set()
_done = set()
_open = {{}}
_log = [None, None]


def _write(*fields):
    pid = os.getpid()
    if _log[0] != pid:
        _log[0] = pid
        _log[1] = open(os.path.join(_OUT, "%d.txt" % pid), "a", buffering=1)
    _log[1].write("\\t".join(fields) + "\\n")


def _scalar(value):
    if isinstance(value, tuple):
        return all(_scalar(v) for v in value)
    return isinstance(value, _SCALARS)


def _value_key(value):
    # NumPy scalars print as np.float64(...); key them as the Python value.
    if isinstance(value, bool):
        return repr(bool(value))
    if isinstance(value, int):
        return repr(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return repr(value)


def _census_start(frame, code):
    if code.co_filename.startswith(_SRC):
        key = "%s:%d" % (code.co_filename, code.co_firstlineno)
        return key, _TRACK.get(key)
    if code.co_name == "__init__" and code.co_filename == "<string>":
        cls = type(frame.f_locals.get("self"))
        if cls.__name__ in _CONFIGS and cls.__module__.startswith("repro."):
            names = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
            return "@" + cls.__name__, names
    return None, None


def _census(frame, code):
    state = _open.get(code)
    if state is None:
        key, names = _census_start(frame, code)
        if not names:
            _done.add(code)
            return
        state = _open[code] = (key, {{name: set() for name in names}})
    key, params = state
    local = frame.f_locals
    for name, values in list(params.items()):
        value = local.get(name)
        if not _scalar(value):
            _write("D", key, name)
            del params[name]
            continue
        rep = _value_key(value)
        if rep not in values:
            values.add(rep)
            _write("V", key, name, rep)
            if len(values) >= _MAX_VALUES:
                del params[name]
    if all(len(v) >= 2 for v in params.values()):
        _done.add(code)
        del _open[code]


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_SRC):
                _write("F", code.co_filename, str(code.co_firstlineno))
        if code not in _done:
            _census(frame, code)


sys.setprofile(_hook)
threading.setprofile(_hook)
'''

PAPER_BENCHES = (
    "bench_ablation_constraints.py", "bench_ablation_gse_vs_spme.py",
    "bench_ablation_migration.py", "bench_figure3_import_volume.py",
    "bench_figure4_numerics.py", "bench_figure5_performance.py",
    "bench_figure6_order_params.py", "bench_figure7_folding.py",
    "bench_numerics_invariance.py", "bench_table1_longest_sims.py",
    "bench_table2_profile.py", "bench_table3_match_efficiency.py",
    "bench_table4_accuracy.py",
)

EXAMPLES = (
    "accuracy_report.py", "folding_miniprotein.py", "machine_scaling.py",
    "order_parameters.py", "pressure_coupling.py", "quickstart.py", "reversibility.py",
)

# Every fault kind, as an exact count and as a per-step rate; only a rate
# reaches the rate-driven event generator.
FAULT_COUNTS = "drop=2,corrupt=2,duplicate=2,delay=2,stall=1,crash=1"
FAULT_RATES = "drop=0.5,corrupt=0.5,duplicate=0.5,delay=0.5,stall=0.25,crash=0.25"

STORE = ("--trajectory-every", "2", "--checkpoint-every", "4")


def _simulate(mode: str, steps: int, resume: bool) -> list[str]:
    argv = ["simulate", "--mode", mode, "--waters", "24", "--steps", str(steps),
            "--seed", "7", "--trajectory", f"{mode}.rrs", *STORE,
            "--checkpoint-dir", f"ck-{mode}", "--energy-log", f"{mode}.jsonl"]
    return argv + ["--resume"] if resume else argv


MACHINE = ("machine", "--waters", "24", "--nodes", "8")
MACHINE_STORE = (*MACHINE, "--trajectory", "machine.rrs", *STORE, "--checkpoint-dir", "ck-machine")
# The same, routed and faulted: the recovery pool keeps its own router and counters.
MACHINE_STORE_FAULTED = (*MACHINE, "--trajectory", "faulted.rrs", *STORE, "--checkpoint-dir",
                         "ck-faulted", "--routed", "--faults", "drop=2")

CLI = (
    ["info"],
    ["perf", "--profile"],
    _simulate("fixed", 12, False),
    _simulate("fixed", 20, True),
    _simulate("float", 12, False),
    _simulate("float", 20, True),
    ["simulate", "--waters", "24", "--steps", "6", "--kernel-tier", "numpy"],
    ["traj", "info", "fixed.rrs"],
    ["traj", "dump", "fixed.rrs"],
    ["traj", "verify", "fixed.rrs"],
    ["ensemble", "--waters", "24", "--replicas", "3", "--steps", "6", "--kernel-threads", "2"],
    ["ensemble", "--waters", "24", "--replicas", "2", "--steps", "8", "--trajectory", "ens.rrs",
     *STORE, "--checkpoint-dir", "ck-ensemble", "--detach", "1"],
    [*MACHINE, "--steps", "4", "--timings", "--profile"],
    [*MACHINE, "--steps", "8", "--faults", FAULT_COUNTS],
    [*MACHINE, "--steps", "8", "--faults", FAULT_RATES],
    [*MACHINE, "--steps", "4", "--routed"],
    [*MACHINE, "--steps", "4", "--routed", "--multicast", "unicast", "--delta-bits", "16"],
    [*MACHINE_STORE, "--steps", "4"],
    [*MACHINE_STORE, "--steps", "8", "--resume", "--check-invariance"],
    [*MACHINE_STORE_FAULTED, "--steps", "4"],
    [*MACHINE_STORE_FAULTED, "--steps", "8", "--resume"],
    ["network", "--waters", "16", "--steps", "4"],
    ["network", "--predict", "--node-counts", "512,4096"],
    # The Section 5.3 system: the one entry point that builds TIP4P-Ew water.
    ["simulate", "--system", "BPTI", "--scale", "0.02", "--steps", "4"],
)


def entry_list(root: Path) -> list[tuple[str, list[str], Path]]:
    """(label, argv, cwd) for every run but the serve round."""
    py = sys.executable
    work = root / "work"
    runs = [(f"examples/{name}", [py, f"examples/{name}"], root) for name in EXAMPLES]
    runs.append(("paper benches", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                   "--benchmark-disable",
                                   *(f"benchmarks/{b}" for b in PAPER_BENCHES)], root))
    runs.append(("run.py --quick", [py, "benchmarks/perf/run.py", "--quick"], root))
    runs.append(("run.py --quick --trace 1",
                 [py, "benchmarks/perf/run.py", "--quick", "--trace", "1"], root))
    runs.append(("crash_recovery_smoke.py", [py, "benchmarks/crash_recovery_smoke.py"], root))
    for tier in ("numpy", "compiled"):
        runs.append((f"serve_smoke.py --kernel-tier {tier}",
                     [py, "benchmarks/serve_smoke.py", "--kernel-tier", tier], root))
    runs += [("repro " + " ".join(a), [py, "-m", "repro", *a], work) for a in CLI]
    return runs


def run_one(label: str, argv: list[str], cwd: Path, env: dict, timeout: float = 1800):
    t0 = time.perf_counter()
    try:
        code = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    secs = time.perf_counter() - t0
    print(f"  {secs:7.1f} s  exit {code}  {label}", flush=True)
    return label, code, secs


def _start_server(root: Path, env: dict, state: Path) -> subprocess.Popen:
    server = subprocess.Popen([sys.executable, "-m", "repro", "serve", "--dir", str(state),
                               "--workers", "1"], cwd=root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    for _ in range(600):
        if (state / "serve.sock").exists():
            break
        time.sleep(0.1)
    return server


def _stop_server(server: subprocess.Popen) -> None:
    server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def serve_round(root: Path, env: dict):
    """``serve``, ``submit``s, ``jobs``; SIGTERM, a torn lane, a restart; ``cancel``."""
    state = root / "work" / "serve"
    t0 = time.perf_counter()
    codes = []

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "repro", *args, "--dir", str(state)],
                              cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=300).returncode

    server = _start_server(root, env, state)
    try:
        # One worker: the two short high-priority jobs preempt the long
        # one, which keeps one snapshot and is still running at SIGTERM.
        codes.append(cli("submit", "--name", "long", "--waters", "32", "--steps", "100000",
                         "--checkpoint-every", "50", "--trajectory-every", "50",
                         "--retain", "1"))
        time.sleep(2.0)
        codes += [
            cli("submit", "--name", "a", "--waters", "16", "--steps", "20", "--priority", "5",
                "--checkpoint-every", "10", "--trajectory-every", "10"),
            cli("submit", "--name", "b", "--waters", "16", "--steps", "20", "--priority", "5",
                "--wait"),
            cli("jobs", "--metrics"),
        ]
    finally:
        _stop_server(server)
    # Tear the long job's newest (only) snapshot while the server is
    # down: the restarted server requeues it with progress but nothing
    # durable, and its resume restarts the lane from step 0.
    snapshots = sorted(state.rglob("long/ck/*"))
    torn = {p: p.read_bytes()[:-7] for p in snapshots}
    for path, data in torn.items():
        path.write_bytes(data)
    if not torn:
        codes.append("no snapshot to tear")
    server = _start_server(root, env, state)
    try:
        for _ in range(300):  # until the resumed lane writes a new snapshot
            if {p: p.read_bytes() for p in state.rglob("long/ck/*")}.items() - torn.items():
                break
            time.sleep(0.1)
        else:
            codes.append("no resume")
        codes += [cli("cancel", "long"), cli("jobs")]
    finally:
        _stop_server(server)
    secs = time.perf_counter() - t0
    code = next((c for c in codes if c), 0)
    print(f"  {secs:7.1f} s  exit {code}  repro serve round", flush=True)
    return "repro serve / submit / jobs; SIGTERM, torn snapshot, restart; cancel", code, secs


def _defs(tree: ast.Module):
    """(qualname, key line, node) of top-level functions and class methods."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]), node
            elif isinstance(node, ast.ClassDef) and not prefix:
                yield from walk(node.body, node.name + ".")
            elif isinstance(node, (ast.If, ast.Try)) and not prefix:
                yield from walk(node.body + node.orelse, prefix)

    yield from walk(tree.body, "")


def _modules(src: Path):
    """(relative file, module, AST) of every file under ``src/repro``."""
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        yield rel, rel[:-3].replace("/", ".").removesuffix(".__init__"), ast.parse(path.read_text(), rel)


def functions(src: Path) -> dict[tuple[str, int], tuple[str, str, int]]:
    """(relative file, key line) -> (module, qualname, lines) under ``src/repro``."""
    out = {}
    for rel, module, tree in _modules(src):
        for qualname, first, node in _defs(tree):
            out[(rel, first)] = (module, qualname, node.end_lineno - first + 1)
    return out


def defaulted(node: ast.FunctionDef) -> list[str]:
    """Names of the parameters of ``node`` that carry a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]] if args.defaults else []
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def config_fields(node: ast.ClassDef) -> list[str]:
    """The ``__init__`` fields of a config dataclass, ``InitVar``s included."""
    return [s.target.id for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            and not ast.unparse(s.annotation).startswith("ClassVar")]


def knobs(src: Path) -> dict[tuple[str, int, str], str]:
    """Every independently settable value under ``src/repro``: census key -> name.

    A defaulted parameter of a top-level function or class method is
    keyed ``(relative file, key line, parameter)`` and named
    ``module:qualname(parameter)``; a field of a :data:`CONFIGS` class is
    keyed ``("@Class", 0, field)`` and named ``module:Class.field``.
    """
    out = {}
    for rel, module, tree in _modules(src):
        for qualname, first, node in _defs(tree):
            for name in defaulted(node):
                out[(rel, first, name)] = f"{module}:{qualname}({name})"
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in CONFIGS:
                for name in config_fields(node):
                    out[("@" + node.name, 0, name)] = f"{module}:{node.name}.{name}"
    return out


def read_allowlist(path: Path = ALLOWLIST) -> list[tuple[str, str, str]]:
    """``(name, category, reason)`` for every non-comment line."""
    entries = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, category, reason = (line.split(None, 2) + ["", ""])[:3]
            entries.append((name, category, reason.strip()))
    return entries


def package(module: str) -> str:
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) > 1 else module


def single_valued(names: dict, values: dict, data: set) -> dict[str, str]:
    """Name -> the one value seen, for every settable value that never varied."""
    return {name: next(iter(values[key])) for key, name in names.items()
            if key not in data and len(values.get(key, ())) == 1}


def census_lines(names: dict, values: dict, data: set, keep) -> list[str]:
    seen = {k for k in names if k in values or k in data}
    single = single_valued(names, values, data)
    fields = sum(1 for key in names if key[0].startswith("@"))
    covered = {name: (cat, reason) for name, cat, reason in keep}
    lines = [
        "## Parameter census",
        "",
        "Every *settable value*: a defaulted parameter of a top-level function",
        "or class method under `src/repro`, and every field of the config",
        f"dataclasses ({', '.join(f'`{c}`' for c in CONFIGS)}). The hook",
        "reads each one from the frame's locals at `call`, so an omitted",
        "argument counts as its default, and keeps up to 8 distinct `repr`s of",
        "scalars, strings, `None` and tuples of these. A value that is ever an",
        "array or an object is *data*, not a knob. A *single-valued* one was",
        "seen with one value across every run above: it is a constant, or it",
        "carries an entry in `tests/reach/knobs.txt` (checked by",
        "`tests/reach/test_census.py`).",
        "",
        "| settable values | defaulted parameters | config fields | seen | data | single-valued |",
        "|---|---|---|---|---|---|",
        f"| {len(names)} | {len(names) - fields} | {fields} | {len(seen)} | "
        f"{len(data & names.keys())} | {len(single)} |",
        "",
        "### Single-valued parameters",
        "",
        "| parameter | value | category | reason |",
        "|---|---|---|---|",
    ]
    for name, value in sorted(single.items()):
        cat, reason = covered.get(name, ("**none**", ""))
        shown = value.replace("|", "\\|")
        lines.append(f"| `{name}` | `{shown}` | {cat} | {reason} |")
    return lines


def write_report(funcs, called, runs, allow, census) -> None:
    reached = funcs.keys() & called
    per = defaultdict(lambda: [0, 0, 0, 0])
    for key, (module, _, n) in funcs.items():
        row = per[package(module)]
        hit = key in reached
        row[0 if hit else 1] += 1
        row[2 if hit else 3] += n
    names = {f"{m}:{q}": key for key, (m, q, _) in funcs.items()}
    unreached = sorted((f"{m}:{q}", n) for key, (m, q, n) in funcs.items() if key not in reached)
    covered = {name: (cat, reason) for name, cat, reason in allow}
    reached_listed = sorted(n for n in covered if n in names and names[n] in reached)
    tot = [sum(r[i] for r in per.values()) for i in range(4)]

    lines = [
        "# Reachability report",
        "",
        "Written by `python tests/reach/driver.py` (see its docstring). A function",
        "is *reached* if any run below called it at least once. Each top-level",
        "function and class method under `src/repro` counts once; lines include",
        "decorators and docstrings. A run that exits non-zero still counts what it",
        "called (the paper benches exit 1 while Figure 6 fails its own assertion,",
        "ROADMAP item 5).",
        "",
        "## Runs",
        "",
        "| run | exit | seconds |",
        "|---|---|---|",
        *(f"| `{label}` | {code} | {secs:.0f} |" for label, code, secs in runs),
        "",
        "## Per package",
        "",
        "| package | functions reached | unreached | lines reached | unreached |",
        "|---|---|---|---|---|",
        *(f"| `{p}` | {r[0]} | {r[1]} | {r[2]} | {r[3]} |" for p, r in sorted(per.items())),
        f"| **total** | {tot[0]} | {tot[1]} | {tot[2]} | {tot[3]} |",
        "",
        "## Unreached functions",
        "",
        "| function | lines | category | reason |",
        "|---|---|---|---|",
    ]
    for name, n in unreached:
        cat, reason = covered.get(name, ("**none**", ""))
        lines.append(f"| `{name}` | {n} | {cat} | {reason} |")
    lines += ["", "## Allowlisted but reached", ""]
    lines += [f"- `{n}`" for n in reached_listed] or ["None."]
    lines += ["", *census_lines(*census)]
    REPORT.write_text("\n".join(lines) + "\n")


def read_logs(calls: Path, src: Path):
    """(called functions, census values, census data) from the hook's logs."""
    def rel(filename):
        return Path(filename).relative_to(src).as_posix()

    called, values, data = set(), defaultdict(set), set()
    for log in calls.glob("*.txt"):
        for line in log.read_text().splitlines():
            tag, *rest = line.split("\t", 3)
            if tag == "F":
                called.add((rel(rest[0]), int(rest[1])))
                continue
            where, name = rest[0], rest[1]
            if where.startswith("@"):
                key = (where, 0, name)
            else:
                filename, _, first = where.rpartition(":")
                key = (rel(filename), int(first), name)
            if tag == "V":
                values[key].add(rest[2])
            else:
                data.add(key)
    return called, values, data


def main() -> int:
    if len(sys.argv) > 1:
        raise SystemExit("tests/reach/driver.py takes no options")
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        root = Path(tmp) / "repo"
        root.mkdir()
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=REPO, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(root)], input=archive, check=True)
        (root / "work").mkdir()
        hook, calls = Path(tmp) / "hook", Path(tmp) / "calls"
        hook.mkdir()
        calls.mkdir()
        src = root / "src"
        names = knobs(src)
        track = defaultdict(list)
        for rel, first, param in names:
            if not rel.startswith("@"):
                track[f"{src / rel}:{first}"].append(param)
        (hook / "track.json").write_text(json.dumps(track))
        (hook / "sitecustomize.py").write_text(HOOK.format(
            out=str(calls), src=str(src / "repro") + os.sep, track=str(hook / "track.json"),
            configs=CONFIGS))
        env = {**os.environ, "PYTHONPATH": f"{hook}{os.pathsep}{src}"}

        print(f"reachability probe of HEAD in {root}", flush=True)
        t0 = time.perf_counter()
        runs = [run_one(label, argv, cwd, env) for label, argv, cwd in entry_list(root)]
        runs.append(serve_round(root, env))
        print(f"  {time.perf_counter() - t0:7.1f} s  all runs", flush=True)

        called, values, data = read_logs(calls, src)
        write_report(functions(src), called, runs, read_allowlist(),
                     (names, values, data, read_allowlist(KNOBS)))
    print(f"wrote {REPORT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
