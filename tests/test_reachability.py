"""Every module-level function and class of the package has a caller
outside the tests, and so does every option. In the tests, every imported
name is used, and every reference in `tests/reference.py` is named by a
test module.

A name counts as used where non-test code (`src/`, `bench/`, `demos/`,
`tools/`) names it outside its own definition: as a name, as an
attribute, or as a string constant equal to it (`bench/layers.py` patches
functions by name). Import lines name it without using it, so they do
not count, and neither does re-exporting it from `dmlbench/__init__.py`.

An option is a defaulted parameter of a module-level function or method,
or a field of a dataclass. It counts as used where non-test code outside
its definition passes it to the callee of that name, by keyword or by
position (through `functools.partial` too), or names it in a string
constant (the CLI's flag tables and the grids set fields by name); a
field also counts as used where an attribute of its name is assigned
(reading a field sets nothing). A `**` argument sets no option by
itself: the keys it carries are named elsewhere.

A test module uses an imported name where it names it as `names_used`
counts, or has a parameter of that name (pytest passes fixtures by name).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dmlbench"
TESTS = ROOT / "tests"
CALLERS = [ROOT / d for d in ("src", "bench", "demos", "tools")]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_used(tree: ast.AST) -> Counter:
    """How often each name appears in `tree` as a name, an attribute or a
    string constant; imports name nothing."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def package_definitions() -> list[tuple[str, ast.AST]]:
    """(module name, definition) of every module-level function and class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, node) for node in tree.body if isinstance(node, DEFINITIONS)]
    return found


def uses_outside_tests(count=names_used) -> Counter:
    used = Counter()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            used += count(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_package_definition_has_a_caller_outside_the_tests():
    used = uses_outside_tests()
    # a recursive call or a name in its own body is not a caller
    unreached = [
        f"{module}.{node.name}"
        for module, node in package_definitions()
        if used[node.name] <= names_used(node)[node.name]
    ]
    assert not unreached, f"only tests reach {unreached}"


# options that only tests set, each a hook for a test
TEST_HOOKS = {
    # the console script parses sys.argv; tests pass their own lists
    ("cli.main", "argv"),
    # the oracle probes one batch shape; tests draw probes of random shapes
    ("gradcheck.draw_probe", "labels"),
    ("gradcheck.draw_probe", "classes"),
    ("gradcheck.draw_probe", "dim"),
    # the few-shot trend check needs texts longer than the corpus default
    ("harness.synth_dataset", "tokens_per_text"),
    # tests lower the cap to reach the subsampling draw on small batches
    ("losses.mine_triplets", "cap"),
    # no non-test code sets the model sizes, which keep their defaults;
    # tests set them to train small models
    ("trainer.TrainConfig", "vocab_size"),
    ("trainer.TrainConfig", "embed_dim"),
    ("trainer.TrainConfig", "out_dim"),
}


def name_of(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def options_used(tree: ast.AST) -> Counter:
    """Keys ("attr", name) and ("str", name) for each attribute assigned
    and each string constant, and (callee, position) or (callee, keyword)
    for each argument a call passes; a starred argument may fill any
    position, "*"."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            used["attr", node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used["str", node.value] += 1
        elif isinstance(node, ast.Call):
            name, args = name_of(node.func), node.args
            if name == "partial" and args:
                name, args = name_of(args[0]), args[1:]
            for i, arg in enumerate(args):
                used[name, "*" if isinstance(arg, ast.Starred) else i] += 1
            used.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return used


def decorator_names(node) -> set[str]:
    return {getattr(d.func if isinstance(d, ast.Call) else d, "id", None) for d in node.decorator_list}


def package_options():
    """(where, option, definition, the keys that count as a use of it) for
    every defaulted parameter and every dataclass field of the package."""
    for module, node in package_definitions():
        functions = [(node.name, node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    called = node.name if method.name == "__init__" else method.name
                    bound = 0 if "staticmethod" in decorator_names(method) else 1
                    functions.append((f"{node.name}.{method.name}", called, method, bound))
            if "dataclass" in decorator_names(node):
                fields = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
                for i, name in enumerate(fields):
                    keys = [("attr", name), ("str", name), (node.name, i), (node.name, "*"),
                            (node.name, name)]
                    yield f"{module}.{node.name}", name, node, keys
        for where, called, func, bound in functions:
            args = func.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                keys = [(called, i - bound), (called, "*"), (called, arg.arg), ("str", arg.arg)]
                yield f"{module}.{where}", arg.arg, func, keys
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{module}.{where}", arg.arg, func, [(called, arg.arg), ("str", arg.arg)]


def test_every_option_is_set_outside_the_tests():
    used = uses_outside_tests(options_used)
    unreached = []
    for where, name, node, keys in package_options():
        own = options_used(node)
        if (where, name) not in TEST_HOOKS and not any(used[k] > own[k] for k in keys):
            unreached.append(f"{where}({name})")
    assert not unreached, f"only tests set {unreached}"


def test_only_the_gradient_oracle_hands_a_loss_its_plan():
    # a loss uses its `_plan` unchecked, so its one producer must build it
    # from the very arguments of each call it hands it to
    naming = []
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = names_used(tree)
            used.update(n.arg for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.keyword)))
            if used["_plan"] and path != PACKAGE / "losses.py":
                naming.append(path.relative_to(ROOT).as_posix())
    assert naming == ["src/dmlbench/gradcheck.py"]


def test_every_test_hook_is_still_an_option():
    options = {(where, name) for where, name, _, _ in package_options()}
    assert TEST_HOOKS <= options


def imported_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.asname or a.name) for a in node.names]
    return found


def test_every_name_a_test_module_imports_is_used():
    unused = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = names_used(tree) + Counter(n.arg for n in ast.walk(tree) if isinstance(n, ast.arg))
        unused += [f"{path.name}:{line} {name}" for line, name in imported_names(tree) if not used[name]]
    assert not unused, f"imported and never used: {unused}"


def test_every_reference_is_named_by_a_test():
    tree = ast.parse((TESTS / "reference.py").read_text(encoding="utf-8"))
    defined = [node.name for node in tree.body if isinstance(node, DEFINITIONS)]
    used = Counter()
    for path in sorted(TESTS.glob("test_*.py")):
        used += names_used(ast.parse(path.read_text(encoding="utf-8")))
    unnamed = [name for name in defined if not used[name]]
    assert not unnamed, f"no test names {unnamed}"
