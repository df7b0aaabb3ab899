"""Physical and code-only lines per module of ``src/pirstream``.

A code-only line holds at least one token that is neither a comment nor
part of a docstring (the first statement of a module, class or function
when it is a string); blank lines count for neither.  Prints one row per
module and the package total, then how many functions the package wraps
in a module-level ``functools.lru_cache`` and how many methods it
decorates with ``functools.cached_property``.

    python scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pirstream"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def decorated(tree, name):
    """The functions and methods of a module decorated by ``name``, bare,
    dotted (``functools.name``) or called (``name(maxsize=...)``)."""
    def is_name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "attr", getattr(node, "id", None)) == name
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(is_name, node.decorator_list))]


def count(source):
    """(physical lines, code-only lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if n not in skip)
    return len(source.splitlines()), len(code)


def main():
    total_physical = total_code = caches = properties = 0
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        physical, code = count(source)
        total_physical += physical
        total_code += code
        tree = ast.parse(source)
        caches += len(set(decorated(tree, "lru_cache")) & set(tree.body))
        properties += len(decorated(tree, "cached_property"))
        print(f"{path.name:<16}{physical:>10}{code:>8}")
    print(f"{'total':<16}{total_physical:>10}{total_code:>8}")
    print(f"module-level lru_caches: {caches}, "
          f"cached_properties: {properties}")


if __name__ == "__main__":
    main()
