"""Batch command-line front end.

Exit codes: 0 success, 1 usage, 2 validation/format failure, 3 runtime
failure (integration or gluing).  Diagnostics go to stderr; set
STOCKFLOW_COLOR=0 to disable ANSI colour.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import bundle as bundle_io
from .bundle import BundleError, ModelBundle
from .compose import oapply
from .diagrams import DiagramError, flatten_names, open_diagram, to_system_structure
from .odes import OdeError, integrate_adaptive, integrate_fixed, vectorfield
from .render import emit_csv, emit_dot, emit_dot_causal, emit_dot_typed
from .stratify import TypedDiagram, typed_stratify
from .views import to_causal_loop

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _color_enabled() -> bool:
    return os.environ.get("STOCKFLOW_COLOR", "") != "0" and sys.stderr.isatty()


def _diag(message: str) -> None:
    if _color_enabled():
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


def _load_bundle(path: str) -> ModelBundle:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE) from exc
    try:
        return bundle_io.parse_json(text)
    except BundleError as exc:
        raise CliError(f"{path}: {exc}", EXIT_VALIDATION) from exc


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_USAGE) from exc


def _pick(section: dict, what: str, requested: str | None) -> tuple[str, object]:
    if requested is not None:
        if requested not in section:
            raise CliError(f"no {what} named {requested!r} in the bundle", EXIT_USAGE)
        return requested, section[requested]
    if len(section) == 1:
        return next(iter(section.items()))
    if not section:
        raise CliError(f"bundle has no {what}", EXIT_USAGE)
    raise CliError(
        f"bundle has {len(section)} {what}s ({', '.join(section)}); pick one", EXIT_USAGE
    )


def _build_model(b: ModelBundle, name: str, md: bundle_io.ModelDef, need_formulas: bool):
    try:
        if md.expressions:
            return bundle_io.model_to_diagram(md)
        if need_formulas:
            raise CliError(f"model {name!r} has no formulas", EXIT_VALIDATION)
        return bundle_io.model_to_structure(md)
    except BundleError as exc:
        raise CliError(f"model {name!r}: {exc}", EXIT_VALIDATION) from exc


def _cmd_validate(args) -> int:
    b = _load_bundle(args.bundle)
    problems: list[str] = []
    for name, md in b.models.items():
        try:
            _build_model(b, name, md, need_formulas=False)
        except CliError as exc:
            problems.append(str(exc))
    for name, fd in b.feet.items():
        try:
            bundle_io.def_to_foot(fd)
        except BundleError as exc:
            problems.append(f"foot {name!r}: {exc}")
    for name, td in b.typings.items():
        try:
            _typed_from_bundle(b, name)
        except CliError as exc:
            problems.append(str(exc))
    for line in problems:
        print(line)
    return EXIT_OK if not problems else EXIT_VALIDATION


def _cmd_info(args) -> int:
    b = _load_bundle(args.bundle)
    for name, md in b.models.items():
        d = _build_model(b, name, md, need_formulas=False)
        print(f"model {name}")
        for obj in d.inst.schema.objects:
            print(f"  {obj:<4} {d.inst.n[obj]}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    b = _load_bundle(args.bundle)
    name, md = _pick(b.models, "model", args.model)
    diagram = _build_model(b, name, md, need_formulas=True)
    _, params = _pick(b.parameters, "parameter set", args.params)
    _, u0 = _pick(b.initial, "initial state", args.init)
    missing = [s for s in diagram.stocks if s not in u0]
    if missing:
        raise CliError(f"initial state misses stock(s): {', '.join(missing)}", EXIT_VALIDATION)
    u0 = {s: u0[s] for s in diagram.stocks}
    try:
        f = vectorfield(diagram, params)
        if args.method == "rk4":
            if args.dt is None:
                raise CliError("--method rk4 requires --dt", EXIT_USAGE)
            traj = integrate_fixed(f, u0, args.t0, args.t1, args.dt)
        else:
            traj = integrate_adaptive(f, u0, args.t0, args.t1, args.abstol, args.reltol)
    except OdeError as exc:
        raise CliError(f"integration failed: {exc}", EXIT_RUNTIME) from exc
    _write(args.out, emit_csv(traj))
    return EXIT_OK


def _cmd_convert(args) -> int:
    b = _load_bundle(args.bundle)
    name, md = _pick(b.models, "model", args.model)
    d = _build_model(b, name, md, need_formulas=False)
    if args.to == "system-structure":
        out = ModelBundle(models={name: bundle_io.diagram_to_model(to_system_structure(d))})
        _write(args.out, bundle_io.emit_json(out))
    else:
        cl = to_causal_loop(d)
        _write(args.out, emit_dot_causal(cl))
    return EXIT_OK


def _cmd_compose(args) -> int:
    b = _load_bundle(args.bundle)
    pattern_name, pd = _pick(b.wiring, "wiring pattern", args.pattern)
    opens = []
    for box in pd.boxes:
        if box.model not in b.models:
            raise CliError(f"pattern references unknown model {box.model!r}", EXIT_VALIDATION)
        diagram = _build_model(b, box.model, b.models[box.model], need_formulas=True)
        feet = []
        for foot_name in box.feet:
            if foot_name not in b.feet:
                raise CliError(f"pattern references unknown foot {foot_name!r}", EXIT_VALIDATION)
            feet.append(bundle_io.def_to_foot(b.feet[foot_name]))
        try:
            opens.append(open_diagram(diagram, feet))
        except DiagramError as exc:
            raise CliError(f"opening {box.model!r}: {exc}", EXIT_RUNTIME) from exc
    try:
        composed = oapply(bundle_io.def_to_pattern(pd), opens)
    except (DiagramError, BundleError) as exc:
        raise CliError(f"composition failed: {exc}", EXIT_RUNTIME) from exc
    out = ModelBundle(
        models={pattern_name: bundle_io.diagram_to_model(composed.apex)},
        parameters=dict(b.parameters),
        initial=dict(b.initial),
    )
    _write(args.out, bundle_io.emit_json(out))
    return EXIT_OK


def _typed_from_bundle(b: ModelBundle, typing_name: str):
    td = b.typings[typing_name]
    structures = []
    for ref in (td.model, td.type_model):
        if ref not in b.models:
            raise CliError(f"typing {typing_name!r} references unknown model {ref!r}", EXIT_VALIDATION)
        try:
            structures.append(bundle_io.model_to_structure(b.models[ref]))
        except BundleError as exc:
            raise CliError(f"typing {typing_name!r}: model {ref!r}: {exc}", EXIT_VALIDATION) from exc
    try:
        return bundle_io.def_to_typing(td, *structures)
    except BundleError as exc:
        raise CliError(f"typing {typing_name!r}: {exc}", EXIT_VALIDATION) from exc


def _sole_typed(b: ModelBundle, path: str, type_structure) -> tuple[str, TypedDiagram]:
    name, td = _pick(b.typings, "typing", None)
    typed = _typed_from_bundle(b, name)
    if typed.type_system.inst != type_structure.inst:
        raise CliError(f"{path}: its type model differs from the --type bundle", EXIT_VALIDATION)
    return td.model, typed


def _cmd_stratify(args) -> int:
    type_bundle = _load_bundle(args.type)
    type_name, type_md = _pick(type_bundle.models, "model", None)
    try:
        type_structure = bundle_io.model_to_structure(type_md)
    except BundleError as exc:
        raise CliError(f"{args.type}: model {type_name!r}: {exc}", EXIT_VALIDATION) from exc

    names = []
    typed = []
    for path in [args.aggregate] + args.strata:
        model_name, t = _sole_typed(_load_bundle(path), path, type_structure)
        names.append(model_name)
        typed.append(t)
    try:
        result = typed_stratify(*typed)
    except DiagramError as exc:
        raise CliError(f"stratification failed: {exc}", EXIT_RUNTIME) from exc
    structure = result.diagram
    if args.flatten:
        try:
            structure = flatten_names(structure)
        except DiagramError as exc:
            raise CliError(f"flattening failed: {exc}", EXIT_RUNTIME) from exc

    out_name = "_".join(names)
    out = ModelBundle(
        models={
            out_name: bundle_io.diagram_to_model(structure),
            type_name: bundle_io.diagram_to_model(type_structure),
        }
    )
    if not args.flatten:
        out.typings[f"{out_name}_typing"] = bundle_io.typing_to_def(
            out_name, type_name, TypedDiagram(structure, type_structure, result.typing)
        )
    _write(args.out, bundle_io.emit_json(out))
    return EXIT_OK


def _cmd_graph(args) -> int:
    b = _load_bundle(args.bundle)
    if args.typed is not None:
        if args.typed not in b.typings:
            raise CliError(f"no typing named {args.typed!r} in the bundle", EXIT_USAGE)
        typed = _typed_from_bundle(b, args.typed)
        _write(args.out, emit_dot_typed(typed))
        return EXIT_OK
    name, md = _pick(b.models, "model", args.model)
    d = _build_model(b, name, md, need_formulas=False)
    _write(args.out, emit_dot(d))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on first use and then shared: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="stockflow", description="Stock-flow diagram toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every model in a bundle")
    p.add_argument("bundle")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("info", help="per-object cardinalities of each model")
    p.add_argument("bundle")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("simulate", help="integrate a model and write CSV")
    p.add_argument("bundle")
    p.add_argument("--model")
    p.add_argument("--params")
    p.add_argument("--init")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--dt", type=float)
    p.add_argument("--abstol", type=float, default=1e-8)
    p.add_argument("--reltol", type=float, default=1e-6)
    p.add_argument("--method", choices=["rk4", "dp45"], default="dp45")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("convert", help="drop formulas or extract the causal loop")
    p.add_argument("bundle")
    p.add_argument("--model")
    p.add_argument("--to", choices=["system-structure", "causal-loop"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("compose", help="glue the bundle's models along its wiring pattern")
    p.add_argument("bundle")
    p.add_argument("--pattern")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("stratify", help="pull back an aggregate model along strata models")
    p.add_argument("--aggregate", required=True)
    p.add_argument("--strata", nargs="+", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--flatten", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_stratify)

    p = sub.add_parser("graph", help="emit Graphviz DOT")
    p.add_argument("bundle")
    p.add_argument("--model")
    p.add_argument("--typed", help="render with the named typing's colours")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_graph)
    return parser


def run(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CliError as exc:
        _diag(str(exc))
        return exc.code
    except (BundleError, DiagramError) as exc:
        _diag(str(exc))
        return EXIT_VALIDATION
    except OdeError as exc:
        _diag(str(exc))
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
