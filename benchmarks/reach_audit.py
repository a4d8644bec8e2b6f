"""Reach audit: which functions in ``src/`` does a set of commands never enter?

Usage (from the repository root)::

    python benchmarks/reach_audit.py run AUDIT_DIR -- python -m repro run syn200 --scale 0.03
    python benchmarks/reach_audit.py run AUDIT_DIR -- python3 perfbench/run.py --workload all
    python benchmarks/reach_audit.py report AUDIT_DIR [--json FILE]

``run`` executes one command with a profiling ``sitecustomize`` first on
``PYTHONPATH`` (and this checkout's ``src/`` after it), so the command and
every Python process it starts record each code object they enter; each
process appends one hit file to ``AUDIT_DIR`` when it exits.  Run it once
per command to audit; the hits accumulate.  ``report`` lists the
functions of ``src/`` (every ``def``, nested ones included) that no
recorded process entered, grouped by module, with their line spans.
``coverage`` is not needed.

The function-level list cannot see a knob value whose branch sits inside
an entered function, so the hook also reads ``self`` at every
``ClusterConfig``/``ServiceConfig.__post_init__`` and records each field
whose value differs from its default; ``report`` lists, per field, the
non-default values any audited process constructed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: installed as ``sitecustomize`` in every audited process
_SITECUSTOMIZE = '''\
import atexit, dataclasses, os, sys, threading

_seen = set()
_configs = set()
_CONFIGS = ("ClusterConfig", "ServiceConfig")


def _note_config(obj):
    cls = type(obj)
    for f in dataclasses.fields(cls):
        value = getattr(obj, f.name)
        if f.default is dataclasses.MISSING or value != f.default:
            _configs.add(f"{cls.__name__}\\t{f.name}\\t{value!r}")


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen.add(code)
        if code.co_name == "__post_init__" and code.co_filename.startswith(_SRC):
            obj = frame.f_locals.get("self")
            if type(obj).__name__ in _CONFIGS:
                _note_config(obj)


def _dump():
    sys.setprofile(None)
    hits = {f"{c.co_filename}:{c.co_firstlineno}" for c in _seen
            if c.co_filename.startswith(_SRC)}
    path = os.path.join(_DIR, f"hits-{os.getpid()}-{id(_seen)}.txt")
    with open(path, "w") as fh:
        fh.write("\\n".join(sorted(hits)))
    path = os.path.join(_DIR, f"configs-{os.getpid()}-{id(_seen)}.txt")
    with open(path, "w") as fh:
        fh.write("\\n".join(sorted(_configs)))


_DIR = os.environ["REACH_AUDIT_DIR"]
_SRC = os.environ["REACH_AUDIT_SRC"]
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def _functions(src: Path):
    """Yield ``(module, qualname, path, first_line, n_lines)`` per ``def``.

    ``first_line`` is the first decorator's line when there is one: that
    is the ``co_firstlineno`` of the function's code object.
    """
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    yield (module, name, path, first, child.end_lineno - first + 1)
                    yield from walk(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".")
                else:
                    yield from walk(child, prefix)

        yield from walk(tree, "")


def run(audit_dir: Path, command: list[str]) -> int:
    site = audit_dir / "_site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    env = dict(os.environ)
    paths = [str(site), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REACH_AUDIT_DIR"] = str(audit_dir)
    env["REACH_AUDIT_SRC"] = str(SRC) + os.sep
    return subprocess.run(command, env=env).returncode


def report(audit_dir: Path) -> dict:
    hits = set()
    for hit_file in audit_dir.glob("hits-*.txt"):
        hits.update(hit_file.read_text().split())
    funcs = list(_functions(SRC))
    unreached: dict[str, list] = {}
    for module, name, path, first, n_lines in funcs:
        if f"{path}:{first}" not in hits:
            unreached.setdefault(module, []).append([name, first, n_lines])
    return {
        "n_functions": len(funcs),
        "n_unreached": sum(len(v) for v in unreached.values()),
        "unreached_lines": sum(f[2] for v in unreached.values() for f in v),
        "unreached": unreached,
        "config_values": _config_values(audit_dir),
    }


def _config_values(audit_dir: Path) -> dict:
    """``{"Class.field": [non-default value reprs]}`` over every field of
    the audited config classes, an empty list for a field no recorded
    process set away from its default."""
    sys.path.insert(0, str(SRC))
    from dataclasses import fields

    from repro.core.config import ClusterConfig
    from repro.serve.service import ServiceConfig

    values = {
        f"{cls.__name__}.{f.name}": set()
        for cls in (ClusterConfig, ServiceConfig) for f in fields(cls)
    }
    for config_file in audit_dir.glob("configs-*.txt"):
        for line in config_file.read_text().splitlines():
            cls, name, value = line.split("\t", 2)
            values.setdefault(f"{cls}.{name}", set()).add(value)
    return {name: sorted(seen) for name, seen in values.items()}


#: non-default values printed per config field before eliding the rest
_SHOWN = 6


def _print_report(rep: dict) -> None:
    for module, funcs in sorted(rep["unreached"].items()):
        print(f"{module}  ({len(funcs)} functions, {sum(f[2] for f in funcs)} lines)")
        for name, first, n_lines in funcs:
            print(f"    {name}  line {first}, {n_lines} lines")
    print(f"{rep['n_unreached']} of {rep['n_functions']} functions never entered "
          f"({rep['unreached_lines']} lines)")
    print("config fields and the non-default values constructed:")
    for name, seen in rep["config_values"].items():
        shown = ", ".join(seen[:_SHOWN]) + (
            f", ... ({len(seen)} values)" if len(seen) > _SHOWN else "")
        print(f"    {name}  {shown or '(default only)'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run one command and record what it enters")
    p_run.add_argument("audit_dir", type=Path)
    p_run.add_argument("command", nargs=argparse.REMAINDER)
    p_rep = sub.add_parser("report", help="list the functions no run entered")
    p_rep.add_argument("audit_dir", type=Path)
    p_rep.add_argument("--json", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    audit_dir = args.audit_dir.resolve()
    if args.cmd == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run needs a command after --")
        return run(audit_dir, command)
    if not any(audit_dir.glob("hits-*.txt")):
        parser.error(f"no hit files in {audit_dir}; record some with 'run' first")
    rep = report(audit_dir)
    _print_report(rep)
    if args.json:
        args.json.write_text(json.dumps(rep, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
