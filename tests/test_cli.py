import argparse
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from schursample import jsonio
from schursample.cli import _first_line, main
from schursample.render import RenderStyle, render_svg
from schursample.rng import RandomSource
from schursample.sampler import schur_sample
from schursample.symmetric import symmetric_schur_sample
from schursample.tilings import (
    DominoTiling,
    from_plane_overpartition,
    overpartition_word,
    to_plane_overpartition,
    to_plane_partition,
    to_steep_tiling,
)
from schursample.unbounded import PyramidalParameters, PyramidalSampler, WordConvention
from schursample.words import parse_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sample_roundtrips_through_json(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--word", "(<'>)^2", "--z", "1,1,1,1", "--seed", "7"
    )
    assert code == 0
    obj = jsonio.loads(out.strip())
    obj.validate()
    direct = schur_sample(parse_word("(<'>)^2"), (1, 1, 1, 1), 7)
    assert obj.lambdas == direct.lambdas
    assert obj.seed == 7


def test_sample_count_ordered_and_deterministic(capsys):
    args = ("sample", "--word", "<>", "--q", "1/2", "--seed", "3", "--count", "8")
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 8


def test_sample_in_place_flag_changes_nothing(capsys):
    args = ("sample", "--word", "(<'>)^3", "--z", "1,1,1,1,1,1", "--seed", "5", "--count", "3")
    code, plain, _ = run_cli(capsys, *args)
    code2, in_place, _ = run_cli(capsys, *args, "--in-place")
    assert code == code2 == 0
    assert in_place == plain
    assert len(plain.strip().splitlines()) == 3


def test_sample_unbounded_batch_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "sample-unbounded", "--q", "0.8", "--alternating", "--count", "8", "--seed", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    sampler = PyramidalSampler(PyramidalParameters.q_volume(0.8), WordConvention.pyramid())
    base = RandomSource(3)
    for k, line in enumerate(lines):
        got = json.loads(line)
        s = sampler.sample(base.child(k))
        assert got["truncation_index"] == s.truncation_index
        assert got["lambdas"] == {str(i): list(v) for i, v in sorted(s.lambdas.items())}


def test_sample_unbounded_q_takes_a_rational(capsys):
    lambdas = []
    for q in ("1/2", "0.5"):
        code, out, _ = run_cli(capsys, "sample-unbounded", "--q", q, "--seed", "4")
        assert code == 0
        got = json.loads(out)
        assert got["q"] == q
        lambdas.append(got["lambdas"])
    assert lambdas[0] == lambdas[1]


def test_zfun_cli(capsys):
    code, out, _ = run_cli(capsys, "zfun", "--word", "<>", "--z", "1/2,1/2")
    assert code == 0
    assert out.strip() == "4/3"


def test_zfun_symmetric_cli(capsys):
    code, out, _ = run_cli(
        capsys, "zfun", "--word", "<", "--z", "1/3", "--t", "1/2", "--mode", "even-rows"
    )
    assert code == 0
    assert out.strip() == "36/35"


def test_sample_symmetric_names_the_diagonal_box_whose_weight_overflows(capsys):
    code, out, err = run_cli(
        capsys, "sample-symmetric", "--word", "<", "--z", "1e200", "--mode", "even-rows"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: box (1, 1) of type HH has parameter inf")


def test_zfun_refuses_a_mode_without_t(capsys):
    code, out, err = run_cli(capsys, "zfun", "--word", "<>", "--z", "1,1", "--mode", "even-rows")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--mode even-rows needs --t" in err
    # with --t alone the mode is free
    free = run_cli(capsys, "zfun", "--word", "<", "--z", "1/3", "--t", "1/2", "--mode", "free")
    assert run_cli(capsys, "zfun", "--word", "<", "--z", "1/3", "--t", "1/2") == free


def test_cli_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "sample", "--word", "<>", "--z", "1,1")
    assert code == 1
    assert "diverges" in err or "error" in err


@pytest.mark.parametrize("flag,value", [("--z", "1/0,1"), ("--q", "1/0")])
def test_cli_zero_denominator_exits_with_an_error_line(capsys, flag, value):
    code, out, err = run_cli(capsys, "sample", "--word", "<>", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'1/0'" in err


@pytest.mark.parametrize("command", [["convert", "--to", "plane-partition"], ["render"]])
def test_cli_empty_input_exits_with_an_error_line(capsys, tmp_path, command):
    empty = tmp_path / "empty.json"
    empty.write_text("\n \n")
    code, out, err = run_cli(capsys, *command, "--input", str(empty))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "no JSON record" in err


_RECORD = '{"a": [1, 2]}'
_FIRST_LINE_INPUTS = [
    "", " ", "\n \n", "\r\n\t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0  　",
    _RECORD, _RECORD + "\n", "\n\n  " + _RECORD + "  \n", _RECORD + "\r\n" + _RECORD,
    _RECORD + " \t\n{}\n", _RECORD + " \t\n \n", _RECORD + "  ", "{\n}", "{  \n  }",
    *(_RECORD + sep + "{}" for sep in "\r\x0b\x0c\x1c\x1d\x1e\x85  "),
    '{"a": " "}\n', '{"a": "é"}\x85\n{}', '{"a": "é"} 　\n',
    _RECORD + "\x1f{}", "\x1f" + _RECORD, " \xa0" + _RECORD + "　 \n",
]


@pytest.mark.parametrize("text", _FIRST_LINE_INPUTS)
def test_the_first_record_is_the_first_line_of_the_stripped_input(text):
    lines = text.strip().splitlines()
    assert _first_line(text) == (lines[0] if lines else None)


@pytest.mark.parametrize("text", [t for t in _FIRST_LINE_INPUTS if t.strip()])
def test_the_first_record_decodes_or_fails_as_the_stripped_first_line(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "render", "--input", "-")
    try:
        jsonio.loads(text.strip().splitlines()[0])
    except Exception as exc:  # the same error line, naming the same position
        assert (code, out, err) == (1, "", f"error: {exc}\n")
    else:
        assert code == 1 and "error:" in err  # decoded, then refused by render


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sample"])  # missing --word
    assert exc.value.code == 2


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    argv = ["sample", "--word", "<>", "--q", "1/2", "--seed", "3"]
    assert main(argv) == 0  # builds the parser, if no earlier call did
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert main(argv) == 0
    with pytest.raises(SystemExit):
        main(["sample"])
    assert built == []


def _fresh_env():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _run_in_a_fresh_process(argv, stdin_text):
    proc = subprocess.run([sys.executable, "-m", "schursample", *argv],
                          input=stdin_text.encode(), capture_output=True, env=_fresh_env(),
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _modules_after(code: str):
    """The modules a fresh process has loaded after running ``code``."""
    probe = code + "\nimport sys\nprint(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), timeout=120, check=True)
    return proc.stdout.split()


# what `import dataclasses` pulls in; the package's records are plain classes
_DATACLASS_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_oracle_and_no_scipy():
    loaded = _modules_after("import schursample.cli")
    assert "schursample.cli" in loaded and "schursample.render" in loaded
    assert "schursample.oracle" not in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    # zfun is compiled by the zfun command alone
    assert [m for m in _DATACLASS_IMPORTS + ("schursample.zfun",) if m in loaded] == []


def test_the_package_resolves_its_partition_functions_on_first_use():
    loaded = _modules_after(
        "import sys, schursample\n"
        "assert 'schursample.zfun' not in sys.modules\n"
        "from schursample import z_finite\n"
        "from schursample import *\n"
        "assert sorted(schursample.__all__) == sorted(n for n in dir() if n in schursample.__all__)\n"
        "assert z_finite is schursample.zfun.z_finite and str(z_symmetric((), (), 1)) == '1'"
    )
    assert "schursample.zfun" in loaded


def test_verify_loads_no_scipy():
    loaded = _modules_after(
        "import contextlib, io\n"
        "from schursample.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    main(['verify', '--word', '<>', '--z', '1/2,1/2', '--samples', '200'])\n"
        "assert 'chi-square p-value: 0.9913' in out.getvalue()"
    )
    assert "schursample.oracle" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    assert "dataclasses" not in loaded


def test_a_reused_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # one process: a usage error first, then each stage reads the last output
    with pytest.raises(SystemExit) as exc:
        main(["sample"])
    assert exc.value.code == 2
    usage = capsys.readouterr()
    code, out, err = _run_in_a_fresh_process(["sample"], "")
    assert code == 2 and out == usage.out.encode() == b""
    assert err.decode().startswith("usage: schursample sample")
    assert usage.err.startswith("usage: schursample sample")
    calls = [
        ["sample", "--word", "(<'>)^3", "--z", "1,1,1,1,1,1", "--seed", "5"],
        ["convert", "--to", "steep-tiling"],
        ["render", "--style", "domino"],
        ["sample-unbounded", "--q", "0.5", "--alternating", "--seed", "2", "--count", "3"],
        ["sample-symmetric", "--word", "(<<')^2", "--z", "0.45,0.45,0.45,0.45",
         "--t", "0.8", "--seed", "4"],
    ]
    text = ""
    for argv in calls:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        fresh_code, fresh_out, _ = _run_in_a_fresh_process(argv, text)
        assert (fresh_code, fresh_out) == (0, out.encode())
        text = out


def test_verify_cli_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--word", "(<'>)^2", "--z", "1,1,1,1",
        "--cap", "50", "--samples", "4000", "--seed", "11",
    )
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "params,named", [(("--z", "1/2,1/2", "--q", "1/0"), "'1/0'"), (("--z", "1/2,inf"), "inf")]
)
def test_verify_bad_number_exits_with_an_error_line(capsys, params, named):
    code, out, err = run_cli(capsys, "verify", "--word", "<>", *params, "--samples", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err


def test_verify_divergent_tail_exits_with_an_error_line(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--word", "<>", "--z", "99/100,99/100", "--cap", "2"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "does not converge" in err


def test_sample_unbounded_refuses_a_non_converging_q_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "sample-unbounded", "--q", "0.99999", "--seed", "1")
    assert time.perf_counter() - t0 < 0.5
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "tail bound fails to converge" in err


@pytest.mark.parametrize("command", [["sample"], ["verify", "--samples", "10"]])
def test_z_and_q_together_exit_with_an_error_line(capsys, command):
    code, out, err = run_cli(capsys, *command, "--word", "<>", "--z", "1/2,1/2", "--q", "1/10")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--z" in err and "--q" in err


def test_convert_and_render_pipeline(capsys, tmp_path, monkeypatch):
    s = schur_sample(parse_word("(<)^3(>)^3"), (0.5,) * 6, 5)
    sample_file = tmp_path / "sample.json"
    sample_file.write_text(jsonio.dumps(s))
    code, out, _ = run_cli(
        capsys, "convert", "--to", "plane-partition", "--input", str(sample_file)
    )
    assert code == 0
    view = jsonio.loads(out.strip())
    assert view.rows == to_plane_partition(s.word, s.lambdas).rows
    view_file = tmp_path / "view.json"
    view_file.write_text(out.strip())
    svg_file = tmp_path / "out.svg"
    code, _, _ = run_cli(
        capsys, "render", "--style", "lozenge", "--input", str(view_file),
        "--out", str(svg_file),
    )
    assert code == 0
    assert svg_file.read_text().startswith("<svg")


def test_render_deterministic_bytes():
    s = schur_sample(parse_word("(<'>)^4"), (1,) * 8, 123)
    t = to_steep_tiling(s.word, s.lambdas)
    a = render_svg(t, RenderStyle(model="domino"))
    b = render_svg(t, RenderStyle(model="domino"))
    assert a == b and a.startswith("<svg")
    m = render_svg(t, RenderStyle(model="maya-particles"))
    assert m.startswith("<svg")


def test_render_empty_tiling():
    t = DominoTiling(parse_word("(<'>)^1"), (-3, 3), ())
    svg = render_svg(t, RenderStyle(model="domino"))
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_json_symmetric_roundtrip():
    from schursample.symmetric import symmetric_schur_sample

    s = symmetric_schur_sample(parse_word("<<'"), (0.3, 0.4), 0.5, "free", 2)
    back = jsonio.loads(jsonio.dumps(s))
    assert back.lambdas == s.lambdas and back.mode == "free"


def test_sample_long_q_volume_word_exits_with_the_overflowing_symbol(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--word", "(<)^2000(>)^2000", "--q", "0.7", "--seed", "1"
    )
    assert code == 1
    assert out == ""
    assert "symbol 1990 (<)" in err and "q=0.7" in err


@pytest.mark.parametrize(
    "command",
    [
        ["sample-plancherel", "--theta", "inf"],
        ["sample-plancherel", "--theta", "nan"],
        ["zfun", "--word", "<>", "--z", "nan,1"],
        ["zfun", "--word", "<>'", "--z", "inf,1"],
    ],
)
def test_non_finite_parameters_exit_with_an_error_line(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_a_huge_plancherel_theta_exits_with_an_error_line_before_any_draw(
    capsys, monkeypatch
):
    def no_draw(self):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(RandomSource, "uniform", no_draw)
    code, out, err = run_cli(capsys, "sample-plancherel", "--theta", "1e300", "--seed", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "theta = 1e+300 exceeds" in err


def test_render_refuses_a_non_finite_scale():
    t = DominoTiling(parse_word("(<'>)^1"), (-3, 3), ())
    with pytest.raises(ValueError, match="finite"):
        render_svg(t, RenderStyle(model="domino", scale=math.nan))


def test_convert_refuses_a_symmetric_sample_as_a_plane_partition(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "sample-symmetric", "--word", "<<", "--z", "0.3,0.3", "--seed", "1"
    )
    assert code == 0
    sample_file = tmp_path / "sample.json"
    sample_file.write_text(out)
    code, out, err = run_cli(
        capsys, "convert", "--to", "plane-partition", "--input", str(sample_file)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "slices" in err


def test_sample_refuses_a_parameter_that_rounds_to_one(capsys):
    # the exact HH parameter is < 1, but its float is 1.0
    code, out, err = run_cli(
        capsys, "sample", "--word", "<>", "--z", "99999999999999999/100000000000000000,1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: box (1, 1) of type HH has parameter 1.0 >= 1")


def test_cli_pipeline_reproduces_the_demo_svg(capsys, monkeypatch):
    # sample (exact Fraction parameters) | convert | render, in-process; demo
    # 01 draws the same sample from the library and renders it at scale 8
    stages = [
        ["sample", "--word", "(<'>)^24", "--z", ",".join(["1"] * 48), "--seed", "2024"],
        ["convert", "--to", "steep-tiling", "--input", "-"],
        ["render", "--style", "domino", "--scale", "8", "--input", "-"],
    ]
    text = ""
    for argv in stages:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, text, err = run_cli(capsys, *argv)
        assert code == 0, err
    demo = Path(__file__).resolve().parents[1] / "demos" / "output" / "aztec_24.svg"
    assert text == demo.read_text() + "\n"


@pytest.mark.parametrize("style", ["domino", "maya-particles", "lozenge"])
def test_render_refuses_a_scale_that_overflows(capsys, tmp_path, style):
    word = parse_word("(<'>)^4" if style != "lozenge" else "(<)^3(>)^3")
    s = schur_sample(word, (1,) * 8 if style != "lozenge" else (0.5,) * 6, 3)
    view = (to_plane_partition if style == "lozenge" else to_steep_tiling)(word, s.lambdas)
    view_file = tmp_path / "view.json"
    view_file.write_text(jsonio.dumps(view))
    code, out, err = run_cli(
        capsys, "render", "--style", style, "--scale", "1e308", "--input", str(view_file)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "scale 1e+308" in err
    assert render_svg(view, RenderStyle(model=style, scale=1e300)).startswith("<svg")


@pytest.mark.parametrize(
    "view, named",
    [
        ({"shape": [2], "rows": [[1]]}, "row lengths do not match the shape"),
        ({"shape": [2, 1], "rows": [[1, 0], [5]]}, "row 1 decreases at column 2"),
        (
            {"kind": "plane-overpartition", "shape": [2], "rows": [[[1, False], [2, False]]]},
            "row 1 increases at column 2",
        ),
        ({"shape": [1, 2], "rows": [[0], [0, 0]]}, "shape [1, 2] is not a partition"),
        ({"shape": [1], "rows": [[-2]]}, "entry -2 at row 1, column 1 is negative"),
        ({"shape": [1], "rows": [[1.5]]}, "entry 1.5 at row 1, column 1 is not an integer"),
        (
            {"kind": "plane-overpartition", "shape": [2], "rows": [[[2, False], [1.5, False]]]},
            "entry 1.5 at row 1, column 2 is not an integer",
        ),
    ],
)
def test_render_refuses_a_malformed_tableau(capsys, tmp_path, view, named):
    view_file = tmp_path / "view.json"
    view_file.write_text(json.dumps({"format": jsonio.FORMAT, "kind": "plane-partition", **view}))
    code, out, err = run_cli(
        capsys, "render", "--style", "lozenge", "--input", str(view_file)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "record, named",
    [
        (
            {"kind": "plane-partition", "shape": [1], "rows": [3]},
            "row 1 of a plane-partition record must be a list, got 3",
        ),
        (
            {"kind": "plane-partition", "shape": 2, "rows": [[3]]},
            "a plane-partition record's shape must be a list of integers, got 2",
        ),
        (
            {"kind": "plane-overpartition", "shape": [1], "rows": [[1]]},
            "row 1 of a plane-overpartition record must be a list of [value, overlined] "
            "pairs, got [1]",
        ),
        (
            {"kind": "plane-overpartition", "shape": [1], "rows": 5},
            "a plane-overpartition record's rows must be a list of lists, got 5",
        ),
        (
            {"kind": "plane-overpartition", "shape": [2], "rows": [[[2, False], [1, False, 0]]]},
            "row 1 of a plane-overpartition record must be a list of [value, overlined] "
            "pairs, got [[2, false], [1, false, 0]]",
        ),
        (
            {"kind": "plane-partition", "shape": ["1"], "rows": [[3]]},
            "a plane-partition record's shape must be a list of integers, got [\"1\"]",
        ),
    ],
    ids=["row-not-a-list", "shape-not-a-list", "entry-not-a-pair", "rows-not-a-list",
         "entry-of-three", "shape-of-strings"],
)
def test_render_names_the_field_of_a_tableau_record_that_is_not_a_list_of_lists(
    capsys, monkeypatch, record, named
):
    # these failed with a bare TypeError ("'int' object is not iterable")
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(record)))
    code, out, err = run_cli(capsys, "render", "--style", "lozenge", "--input", "-")
    assert (code, out, err) == (1, "", f"error: {named}\n")


def _domino(k, pos2, vertical, sign):
    return {"k": k, "pos2": pos2, "vertical": vertical, "sign": sign}


@pytest.mark.parametrize(
    "style, dominoes, named",
    [
        (
            "domino",
            [_domino(0, 1, False, -1), _domino(0, 1, True, -1)],
            "two dominoes cover the cell at diagonal 0, 1",
        ),
        ("domino", [_domino(0, 1, False, 5)], "step 0 needs sign -1"),
        ("maya-particles", [_domino(0, 2, False, -1)], "pos2 2 is even"),
        # these loaded and rendered while the reader coerced with bool() and int()
        ("domino", [_domino(0, 1.0, False, -1)], "pos2 1.0 is not an integer"),
        ("maya-particles", [_domino(0, 1, False, -1.5)], "sign -1.5 is not an integer"),
        ("domino", [_domino(0, 1, 1, -1)], "vertical 1 is not a bool"),
        ("domino", {"window": [-3.0, 3]}, "window bounds must be integers, got [-3.0, 3]"),
        # an IndexError traceback, and a drawing with exit 0, while the length went unchecked
        ("domino", {"window": [-3]}, "window must be two bounds, got [-3]"),
        ("domino", {"window": [-3, 3, 5]}, "window must be two bounds, got [-3, 3, 5]"),
        # a TypeError that named neither the field nor the record
        ("domino", {"window": 3}, "window must be a list of two bounds, got 3"),
        ("domino", {"window": None}, "window must be a list of two bounds, got null"),
        ("domino", {"dominoes": 5}, "dominoes must be a list, got 5"),
        (
            "domino",
            [_domino(0, 1, False, -1), [1, 2, 3, 4]],
            "domino 1 must be an object with k, pos2, vertical and sign, got [1, 2, 3, 4]",
        ),
    ],
)
def test_render_refuses_a_malformed_steep_tiling(capsys, tmp_path, style, dominoes, named):
    # ``dominoes`` is the record's list of dominoes, or a dict of fields that
    # replace those of a record holding one valid domino
    view = {"format": jsonio.FORMAT, "kind": "steep-tiling", "word": "<'>",
            "window": [-3, 3], "dominoes": [_domino(0, 1, False, -1)]}
    view.update(dominoes if isinstance(dominoes, dict) else {"dominoes": dominoes})
    view_file = tmp_path / "view.json"
    view_file.write_text(json.dumps(view))
    code, out, err = run_cli(capsys, "render", "--style", style, "--input", str(view_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "kind, word, target, lambdas",
    [
        ("process-sample", "<>", "plane-partition", [[], [2, 1], []]),
        ("symmetric-sample", "<<'", "overpartition", [[], [3, 1], [1], [3, 1], []]),
    ],
)
def test_convert_refuses_a_sequence_that_does_not_interlace(
    capsys, tmp_path, kind, word, target, lambdas
):
    sample = {"format": jsonio.FORMAT, "kind": kind, "word": word, "z": ["1/2"] * len(word),
              "t": "1", "mode": "free", "seed": 0, "lambdas": lambdas}
    sample_file = tmp_path / "sample.json"
    sample_file.write_text(json.dumps(sample))
    code, out, err = run_cli(capsys, "convert", "--to", target, "--input", str(sample_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "sequence does not interlace at step 1" in err


def test_convert_refuses_a_part_that_is_not_an_integer(capsys, tmp_path):
    # the part 1.5 once loaded and failed later, as "mark moves from -1 to 2.0"
    sample = {"format": jsonio.FORMAT, "kind": "process-sample", "word": "<'>",
              "z": ["1", "1"], "seed": 0, "lambdas": [[], [1.5], []]}
    sample_file = tmp_path / "sample.json"
    sample_file.write_text(json.dumps(sample))
    code, out, err = run_cli(capsys, "convert", "--to", "steep-tiling", "--input", str(sample_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "parts must be integers, got 1.5" in err


def test_sample_symmetric_converts_to_the_library_overpartition(capsys, monkeypatch):
    word = overpartition_word(5)
    argv = ["sample-symmetric", "--word", "(<<')^5", "--z", ",".join(["3/4"] * 10),
            "--t", "1/2", "--seed", "9"]
    code, text, err = run_cli(capsys, *argv)
    assert code == 0, err
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, view_text, err = run_cli(capsys, "convert", "--to", "overpartition", "--input", "-")
    assert code == 0, err
    s = symmetric_schur_sample(word, (Fraction(3, 4),) * 10, Fraction(1, 2), "free", 9)
    tab = to_plane_overpartition(word, s.lambdas)
    assert jsonio.loads(view_text) == tab and sum(tab.shape) > 0
    assert from_plane_overpartition(tab, 5) == s.lambdas[:11]


@pytest.mark.parametrize(
    "command",
    [
        ["sample", "--word", "<>", "--q", "1/2", "--count", "0"],
        ["sample", "--word", "<>", "--q", "1/2", "--count", "-3"],
        ["sample-symmetric", "--word", "<<", "--z", "0.3,0.3", "--count", "0"],
        ["sample-unbounded", "--q", "0.5", "--count", "-3"],
        ["sample-plancherel", "--theta", "4", "--count", "0"],
    ],
)
def test_sample_refuses_a_count_below_one(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--count" in err


def test_verify_has_no_count_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--word", "<>", "--z", "1/2,1/2", "--samples", "10", "--count", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --count 5" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["[1]", "null", '"plane-partition"'])
@pytest.mark.parametrize("command", [["convert", "--to", "overpartition"], ["render"]])
def test_a_record_that_is_not_a_json_object_exits_with_an_error_line(
    capsys, tmp_path, command, record
):
    record_file = tmp_path / "record.json"
    record_file.write_text(record + "\n")
    code, out, err = run_cli(capsys, *command, "--input", str(record_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "a record must be a JSON object" in err


def test_convert_refuses_a_view_record(capsys, tmp_path):
    view = to_plane_partition(parse_word("<>"), ((), (2,), ()))
    view_file = tmp_path / "view.json"
    view_file.write_text(jsonio.dumps(view))
    code, out, err = run_cli(capsys, "convert", "--to", "steep-tiling", "--input", str(view_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "convert needs a sample record" in err


@pytest.mark.parametrize(
    "sample, command, kind",
    [
        (["sample-unbounded", "--q", "0.5"], ["convert", "--to=steep-tiling"], "pyramidal-sample"),
        (["sample-plancherel", "--theta", "5"], ["render"], "partition"),
    ],
)
def test_a_sample_with_no_view_is_refused_by_its_record_kind(
    capsys, tmp_path, sample, command, kind
):
    code, record, _ = run_cli(capsys, *sample)
    assert code == 0
    record_file = tmp_path / "record.json"
    record_file.write_text(record)
    code, out, err = run_cli(capsys, *command, "--input", str(record_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"record of kind {kind!r}" in err
    assert "view kind" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--word", "<>", "--z=-1/2,1/2"], "parameters must be finite and nonnegative, got -1/2"),
        (["--word", "<'>", "--z=-2,1"], "parameters must be finite and nonnegative, got -2"),
        (["--word", "<", "--z", "1/3", "--t=-1/2"], "finite and nonnegative, got -1/2"),
    ],
)
def test_zfun_refuses_negative_parameters(capsys, argv, named):
    code, out, err = run_cli(capsys, "zfun", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err


def test_verify_with_q_checks_against_the_exact_q_volume_law(capsys):
    # --q hands the oracle the exact weights q^-i and q^i of q = 1/2
    code, out, err = run_cli(
        capsys, "verify", "--word", "<>", "--q", "1/2",
        "--cap", "20", "--samples", "4000", "--seed", "1",
    )
    assert (code, err) == (0, "")
    assert out.startswith("support entries: 21 (cap 20)\n") and out.endswith("PASS\n")


def test_verify_rounds_a_float_parameter_to_a_near_rational(capsys):
    from schursample.cli import _exact

    assert _exact(0.1) == Fraction(1, 10) != Fraction(0.1)
    assert _exact(3) == Fraction(3)
    code, out, _ = run_cli(
        capsys, "verify", "--word", "<'>", "--z", "0.3,0.7", "--samples", "2000", "--seed", "3"
    )
    assert code == 0
    assert out.startswith("support entries: 2 (cap 12)\n") and out.endswith("PASS\n")


def test_sample_without_z_or_q_exits_with_an_error_line(capsys):
    code, out, err = run_cli(capsys, "sample", "--word", "<>")
    assert (code, out, err) == (1, "", "error: need --z or --q\n")


def test_render_names_a_steep_tiling_field_of_another_type(capsys, tmp_path):
    # sorting these dominoes compared "a" with 0, a TypeError that named no field
    view = {"format": jsonio.FORMAT, "kind": "steep-tiling", "word": "<'>", "window": [-3, 3],
            "dominoes": [_domino("a", 1, False, -1), _domino(0, 1, False, -1)]}
    view_file = tmp_path / "view.json"
    view_file.write_text(json.dumps(view))
    code, out, err = run_cli(capsys, "render", "--input", str(view_file))
    assert (code, out) == (1, "")
    assert err == "error: domino ('a', 1, False, -1): k 'a' is not an integer\n"


def test_render_names_a_missing_field_of_a_sample_record(capsys, tmp_path):
    record = tmp_path / "sample.json"
    record.write_text(json.dumps({"kind": "process-sample", "word": "<>", "lambdas": [[], [1], []]}))
    code, out, err = run_cli(capsys, "render", "--input", str(record))
    assert (code, out) == (1, "")
    assert err == "error: a process-sample record has no field 'z'\n"
