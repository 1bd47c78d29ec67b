import ast
import importlib
import pkgutil
from pathlib import Path

import beamtrain

MODULES = [
    info.name
    for info in pkgutil.iter_modules(beamtrain.__path__, "beamtrain.")
    if info.name != "beamtrain.__main__"  # importing it runs the command
]


def test_public_names_resolve():
    # A stale export fails here rather than as an AttributeError on import *.
    for name in MODULES:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names undefined {missing}"
    tree = ast.parse(Path(beamtrain.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"beamtrain.{node.module}")
            unlisted = [alias.name for alias in node.names if alias.name not in module.__all__]
            assert not unlisted, f"beamtrain imports {unlisted} from {node.module}, not its __all__"


def test_one_codebook_builder():
    # Every construction is built by generate_codebook(method, n); no module
    # exports a second, per-method generator.
    for name in MODULES:
        module = importlib.import_module(name)
        extra = [attr for attr in module.__all__
                 if attr.startswith("generate_") and attr != "generate_codebook"]
        assert not extra, f"{name}.__all__ exports {extra} beside generate_codebook"


def test_modules_import_no_private_names():
    # A module reaches another only through its public names.
    for path in sorted(Path(beamtrain.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "beamtrain"
            ):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"
