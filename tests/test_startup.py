"""What importing decreal costs a fresh process.

The package and the expression front end load no module and compile no
code that their first call does not need: the CLI imports argparse only
to read argv, and each value type compiles its ``__init__`` when it is
first instantiated.  Oracles: ``sys.modules`` and the code objects of a
fresh interpreter, and hand-written expected messages and values."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from decreal import _frozen
from decreal._frozen import frozen

SRC = Path(__file__).resolve().parent.parent / "src"

# import decreal and the expression front end, render sqrt(2) to one
# digit, and report what was loaded and which value types compiled
# their __init__ (generated source has the file name "<string>")
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import decreal
from decreal.cli import evaluate_expression, parse_expression
digits = decreal.render_digits(
    evaluate_expression(parse_expression("sqrt(2)")), 1)
compiled, lazy = [], []
for module in [m for name, m in sys.modules.items()
               if name.startswith("decreal.")]:
    for name, value in vars(module).items():
        init = (value.__dict__.get("__init__")
                if isinstance(value, type) else None)
        if init is not None and hasattr(init, "__code__"):
            if init.__code__.co_filename == "<string>":
                compiled.append(name)
            elif init.__code__.co_filename == decreal._frozen.__file__:
                lazy.append(name)
print(json.dumps({"digits": digits, "modules": sorted(sys.modules),
                  "compiled": sorted(set(compiled)),
                  "lazy": sorted(set(lazy))}))
"""


@pytest.fixture(scope="module")
def cold_start():
    done = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(done.stdout)


class TestColdStart:
    def test_probe_renders(self, cold_start):
        assert cold_start["digits"] == "1.4"

    @pytest.mark.parametrize("module", ["argparse", "gettext"])
    def test_front_end_loads_no_argparse(self, cold_start, module):
        assert module not in cold_start["modules"]

    def test_only_built_value_types_compile_init(self, cold_start):
        # the probe builds terminating values and a digit prefix, and
        # nothing else compiles; Pass, Enclosure and the rest stay lazy
        assert set(cold_start["compiled"]) <= {
            "TerminatingDecimal", "TerminatingReal", "DigitPrefix"}
        assert {"Pass", "Enclosure", "PeriodicReal", "PhiOk",
                "FiniteSet"} <= set(cold_start["lazy"])

    def test_one_pattern_is_compiled_at_import(self):
        # the tokenizer's; the literal grammar is pattern text, and the
        # rep fraction pattern is compiled when rep runs
        compiled = [(path.name, line.split("=")[0].strip())
                    for path in sorted((SRC / "decreal").glob("*.py"))
                    for line in path.read_text().splitlines()
                    if "re.compile(" in line]
        assert compiled == [("cli.py", "_TOKEN")]


def make_point():
    """A fresh @frozen class, so each test sees its first call."""
    @frozen
    class Point:
        x: int
        y: int = 2

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x must be non-negative")

    return Point


def is_compiled(cls) -> bool:
    """Whether the class's own __init__ is the generated one."""
    return cls.__dict__["__init__"].__code__.co_filename == "<string>"


class TestLazyInit:
    def test_compiled_at_first_instance(self):
        Point = make_point()
        assert not is_compiled(Point)
        assert Point.__init__.__code__.co_filename == _frozen.__file__
        p = Point(1)
        assert is_compiled(Point)
        assert (p.x, p.y) == (1, 2)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "__init__() missing 1 required positional argument: 'x'"),
        ((1, 2, 3), {},
         "__init__() takes from 2 to 3 positional arguments but 4 were "
         "given"),
        ((1,), {"z": 3}, "__init__() got an unexpected keyword argument 'z'"),
        ((1,), {"x": 3}, "__init__() got multiple values for argument 'x'"),
    ])
    def test_wrong_first_call_raises_what_a_later_one_does(
            self, args, kwargs, message):
        Point = make_point()
        raised = []
        for _ in range(2):
            with pytest.raises(TypeError) as info:
                Point(*args, **kwargs)
            raised.append(str(info.value))
        assert raised == [message, message]
        assert is_compiled(Point)

    def test_post_init_runs_on_the_first_call(self):
        Point = make_point()
        with pytest.raises(ValueError, match="non-negative"):
            Point(-1)
        with pytest.raises(ValueError, match="non-negative"):
            Point(-1)

    def test_value_semantics(self):
        Point = make_point()
        p, q = Point(1), Point(1, 2)
        assert p == q and p is not q
        assert hash(p) == hash(q) == hash((1, 2))
        assert p != Point(1, 3)
        assert repr(p) == "make_point.<locals>.Point(x=1, y=2)"
        with pytest.raises(AttributeError, match="cannot assign"):
            p.x = 3
        with pytest.raises(AttributeError, match="cannot delete"):
            del p.y

    def test_subclass_first_installs_on_the_frozen_class(self):
        Point = make_point()

        class Labelled(Point):
            pass

        assert Labelled(4).y == 2
        assert is_compiled(Point)
        assert "__init__" not in Labelled.__dict__
