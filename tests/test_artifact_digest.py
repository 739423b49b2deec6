"""Smoke test of scripts/artifact_digest.py on one figure: it lists every
file `sismob reproduce` writes, in both variants, with the digest of the
bytes the CLI writes and prints."""

import hashlib
import importlib.util
from pathlib import Path

from sismob import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_match_an_in_process_reproduce(tmp_path, monkeypatch, capsys):
    lines = list(load_script().digest_lines(["fig2_star"]))
    digests = {name: sha for sha, name in (line.split("  ") for line in lines)}
    assert len(digests) == len(lines)
    assert sorted(digests) == sorted(
        [f"as_is/fig2_star/{f}" for f in ("stdout", "fig2_star.csv", "fig2_star_assumptions.txt",
                                          "fig2_star_p.svg", "fig2_star_report.json",
                                          "fig2_star_x.svg")]
        + [f"seed7_csv/fig2_star/{f}" for f in ("stdout", "fig2_star.csv",
                                                "fig2_star_assumptions.txt")])
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(["reproduce", "--figure", "fig2_star", "--out-dir", "out"]) == 0
    printed = capsys.readouterr().out.encode()
    assert digests["as_is/fig2_star/stdout"] == hashlib.sha256(printed).hexdigest()
    for path in (tmp_path / "out").iterdir():
        assert digests[f"as_is/fig2_star/{path.name}"] == hashlib.sha256(
            path.read_bytes()).hexdigest()
