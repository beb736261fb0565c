"""The same-bytes tool's pipelines and its comparison, without running them."""

import importlib.util
from pathlib import Path

from unbiasedpf import cli


def _same_bytes():
    path = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
    spec = importlib.util.spec_from_file_location("_same_bytes", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_pipelines_run_every_subcommand_and_parse():
    tool = _same_bytes()
    parser = cli._build_parser()
    for model in tool.MODELS:
        steps = tool.pipeline(model)
        assert {argv[0] for argv in steps} == set(cli._SUBCOMMANDS)
        # a cached reference rerun, and a run from the --config file
        assert sum(argv[0] == "reference" for argv in steps) == 2
        assert any("--config" in argv for argv in steps)
        for argv in steps:
            parser.parse_args([*argv, "--threads", "2"])


def test_config_text_is_a_readable_config(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(_same_bytes().config_text("NLD"))
    assert cli.read_config(path).model == "NLD"


def test_compare_flags_a_one_byte_change_and_a_missing_file(tmp_path):
    differing_files = _same_bytes().differing_files
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        (side / "sub").mkdir(parents=True)
        (side / "same.csv").write_bytes(b"k,y\n1,0.5\n")
        (side / "sub" / "meta.json").write_bytes(b'{"x": 1}\n')
    assert differing_files(a, b) == []

    (b / "sub" / "meta.json").write_bytes(b'{"x": 2}\n')
    (a / "only_a.txt").write_bytes(b"")
    assert differing_files(a, b) == ["only_a.txt", str(Path("sub") / "meta.json")]
