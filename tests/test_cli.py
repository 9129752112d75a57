import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from codegap import pipeline
from codegap.cli import main
from codegap.contrastive import ToyEncoder
from codegap.languages import get_language
from codegap.pipeline import read_jsonl
from codegap.synth import write_clone_corpus, write_mixed_corpus


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    write_mixed_corpus(root, seed=5, files_per_lang=4, long_every=0)
    return root


def shard_bytes(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*.jsonl"))}


def test_unknown_flag_exits_one(capsys):
    assert main(["pairs", "--definitely-not-a-flag"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_subcommand_exits_one():
    assert main([]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "codegap" in out and "python" in out


def test_prepare_writes_manifest(small_corpus, tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    assert main(["prepare", "--roots", str(small_corpus), "--out", str(manifest)]) == 0
    rows = [json.loads(ln) for ln in manifest.read_text().splitlines()]
    assert rows
    assert set(rows[0]) == {"path", "source", "language", "hash", "split"}


def test_pairs_deterministic_across_runs_and_jobs(small_corpus, tmp_path):
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        code = main(["pairs", "--roots", str(small_corpus), "--out", str(out),
                     "--seed", "7", "--jobs", jobs])
        assert code == 0
        outs.append(shard_bytes(out))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0]



# SHA-256 of the pairs shards (relative path, then bytes, per file in path
# order) for the mixed corpus below at --seed 0; it pins tree shape, the order
# of RNG draws and the root-relative meta.source
MIXED_PAIRS_SHA256 = "381d03419b42dd92d13ca58f6d2436ee43b20b8f3adbab309679c1516784798b"


@pytest.mark.parametrize("jobs", ["1", "2", "3"])  # each worker count chunks the files anew
def test_pairs_match_golden_digest(tmp_path, jobs):
    write_mixed_corpus(tmp_path / "corpus", seed=3, files_per_lang=30)
    assert main(["pairs", "--roots", str(tmp_path / "corpus"), "--out", str(tmp_path / "out"),
                 "--seed", "0", "--jobs", jobs]) == 0
    digest = hashlib.sha256()
    for name, data in shard_bytes(tmp_path / "out").items():
        digest.update(Path(name).as_posix().encode() + b"\n" + data)
    assert digest.hexdigest() == MIXED_PAIRS_SHA256


def test_pool_chunks_are_capped(mixed_corpus, tmp_path, monkeypatch):
    for jobs in (1, 2, 3, 8):
        assert 1 <= pipeline.chunk_size(6000, jobs) <= pipeline.MAX_CHUNK_FILES
    # a cap that binds on these 120 files: the pool gets capped chunks, and
    # the shards equal the serial run's and the golden digest
    chunk_sizes = []

    class RecordingPool(pipeline.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            chunk_sizes.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline, "MAX_CHUNK_FILES", 3)
    root, _ = mixed_corpus
    outs = []
    for jobs in ("1", "2"):
        assert main(["pairs", "--roots", str(root), "--out", str(tmp_path / jobs),
                     "--seed", "0", "--jobs", jobs]) == 0
        outs.append(shard_bytes(tmp_path / jobs))
    assert chunk_sizes == [3]
    assert outs[0] == outs[1]
    digest = hashlib.sha256()
    for name, data in outs[1].items():
        digest.update(Path(name).as_posix().encode() + b"\n" + data)
    assert digest.hexdigest() == MIXED_PAIRS_SHA256


class _RecordingPool:
    """A stand-in for the process pool that records its worker count and
    runs the tasks in this process, so a test starts no process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_pool_starts_at_most_one_worker_per_chunk(mixed_corpus, monkeypatch):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _RecordingPool)
    root, _ = mixed_corpus
    files = pipeline.ingest([root], pipeline.PipelineConfig())
    serial = list(pipeline.make_pairs(files[:3], pipeline.PipelineConfig()))
    for jobs in (8, 2):
        assert list(pipeline.make_pairs(files[:3], pipeline.PipelineConfig(jobs=jobs))) == serial
    assert _RecordingPool.started == [3, 2]  # three one-file chunks


@pytest.mark.parametrize("source", ["flag", "config"])
def test_jobs_above_the_ceiling_is_data_error(small_corpus, tmp_path, capsys, monkeypatch, source):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _RecordingPool)
    for jobs, code in ((pipeline.MAX_JOBS + 1, 2), (10 ** 9, 2), (pipeline.MAX_JOBS, 0)):
        out = tmp_path / str(jobs)
        args = ["pairs", "--roots", str(small_corpus), "--out", str(out)]
        if source == "flag":
            args += ["--jobs", str(jobs)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"jobs": jobs}), encoding="utf-8")
            args = ["--config", str(cfg), *args]
        assert main(args) == code
        err = capsys.readouterr().err
        assert (f"'jobs' must be between 1 and {pipeline.MAX_JOBS}" in err) == bool(code)
        assert out.exists() != bool(code)
    assert len(_RecordingPool.started) == 1 and _RecordingPool.started[0] <= pipeline.MAX_JOBS


def test_pairs_bytes_do_not_depend_on_how_roots_is_spelled(small_corpus, tmp_path, monkeypatch):
    monkeypatch.chdir(small_corpus.parent)
    spellings = [small_corpus.name, f"./{small_corpus.name}/", str(small_corpus.resolve())]
    outs = []
    for i, root in enumerate(spellings):
        out = tmp_path / str(i)
        assert main(["pairs", "--roots", root, "--out", str(out), "--seed", "1"]) == 0
        outs.append(shard_bytes(out))
    assert outs[0] and outs[0] == outs[1] == outs[2]


def test_pairs_with_deeply_nested_file(small_corpus, tmp_path):
    reference = tmp_path / "reference"
    assert main(["pairs", "--roots", str(small_corpus), "--out", str(reference),
                 "--seed", "4"]) == 0
    corpus = tmp_path / "corpus"
    for path in small_corpus.rglob("*"):
        if path.is_file():
            target = corpus / path.relative_to(small_corpus)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    (corpus / "deep.js").write_text("let x = " + "[" * 5000 + "1" + "]" * 5000 + ";\n",
                                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pairs", "--roots", str(corpus), "--out", str(out), "--seed", "4"]) == 0
    records = [r for path in sorted(out.rglob("*.jsonl")) for r in read_jsonl(path)]
    expected = [r for path in sorted(reference.rglob("*.jsonl")) for r in read_jsonl(path)]
    sources = {r.meta["source"] for r in records}
    assert "deep.js" in sources
    assert ({(r.pair_id, r.context, r.target) for r in expected}
            <= {(r.pair_id, r.context, r.target) for r in records})

def test_pairs_from_manifest_matches_roots(small_corpus, tmp_path):
    manifest = tmp_path / "m.jsonl"
    main(["prepare", "--roots", str(small_corpus), "--out", str(manifest)])
    out_a = tmp_path / "from_roots"
    out_b = tmp_path / "from_manifest"
    main(["pairs", "--roots", str(small_corpus), "--out", str(out_a), "--seed", "3"])
    main(["pairs", "--manifest", str(manifest), "--out", str(out_b), "--seed", "3"])
    assert shard_bytes(out_a) == shard_bytes(out_b)


def test_pairs_from_manifest_keeps_only_langs(small_corpus, tmp_path):
    manifest = tmp_path / "m.jsonl"
    assert main(["prepare", "--roots", str(small_corpus), "--out", str(manifest)]) == 0
    out_m, out_r = tmp_path / "from_manifest", tmp_path / "from_roots"
    for source, out in ((["--manifest", str(manifest)], out_m), (["--roots", str(small_corpus)], out_r)):
        assert main(["pairs", *source, "--out", str(out), "--seed", "3", "--langs", "c"]) == 0
    records = [r for path in sorted(out_m.rglob("*.jsonl")) for r in read_jsonl(path)]
    assert records and {r.language for r in records} == {"c"}
    assert shard_bytes(out_m) == shard_bytes(out_r)


def test_pairs_from_manifest_without_source_column_is_data_error(small_corpus, tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    assert main(["prepare", "--roots", str(small_corpus), "--out", str(manifest)]) == 0
    rows = [json.loads(ln) for ln in manifest.read_text(encoding="utf-8").splitlines()]
    old = tmp_path / "old.jsonl"
    old.write_text("".join(json.dumps({k: v for k, v in row.items() if k != "source"}) + "\n"
                           for row in rows), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pairs", "--manifest", str(old), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "source" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--roots", "corpus"], ["--valid-repos", "valid.txt"],
                                   ["--ext-map", "ext.txt"]])
def test_pairs_from_manifest_with_a_roots_only_flag_is_usage_error(small_corpus, tmp_path,
                                                                  monkeypatch, extra):
    manifest = tmp_path / "m.jsonl"
    assert main(["prepare", "--roots", str(small_corpus), "--out", str(manifest)]) == 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").symlink_to(small_corpus)
    (tmp_path / "valid.txt").write_text("repo0\n", encoding="utf-8")
    (tmp_path / "ext.txt").write_text("py=python\n", encoding="utf-8")
    assert main(["pairs", "--manifest", str(manifest), *extra, "--out", "out"]) == 1
    assert not (tmp_path / "out").exists()


def test_pairs_from_manifest_warns_that_config_valid_repos_is_ignored(small_corpus, tmp_path,
                                                                      caplog):
    manifest = tmp_path / "m.jsonl"
    assert main(["prepare", "--roots", str(small_corpus), "--out", str(manifest)]) == 0
    plain = tmp_path / "plain"
    assert main(["pairs", "--manifest", str(manifest), "--out", str(plain)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"valid_repos": ["python_repo1"]}), encoding="utf-8")
    out = tmp_path / "out"
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="codegap"):
        assert main(["--config", str(cfg), "pairs", "--manifest", str(manifest),
                     "--out", str(out)]) == 0
    records = [r for r in caplog.records if r.name == "codegap"]
    assert records[0].getMessage().startswith("config ")
    warnings = [r.getMessage() for r in records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "valid_repos" in warnings[0] and "split" in warnings[0]
    assert shard_bytes(out) == shard_bytes(plain)


def _pair_records(small_corpus, out, *flags):
    assert main(["pairs", "--roots", str(small_corpus), "--out", str(out), "--seed", "0",
                 *flags]) == 0
    records = [r for path in sorted(out.rglob("*.jsonl")) for r in read_jsonl(path)]
    assert records
    return records


def test_pairs_meta_follows_the_ablation_switches(small_corpus, tmp_path):
    for r in _pair_records(small_corpus, tmp_path / "no_masking", "--no-masking"):
        assert r.meta["skipped_masking"] is True and r.meta["aliases"] == {}
    for r in _pair_records(small_corpus, tmp_path / "no_dedent", "--no-dedent"):
        assert r.meta["dedent_cols"] == 0
    defaults = _pair_records(small_corpus, tmp_path / "defaults")
    assert any(r.meta["aliases"] for r in defaults)
    assert any(r.meta["dedent_cols"] > 0 for r in defaults)


def test_pairs_with_a_file_that_is_one_error_region(small_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "good.py").write_bytes(sorted(small_corpus.rglob("*.py"))[0].read_bytes())
    alone = tmp_path / "alone"
    assert main(["pairs", "--roots", str(corpus), "--out", str(alone), "--seed", "2"]) == 0
    # an unclosed '(' makes the whole file, over the truncation threshold, one error node
    (corpus / "bad.py").write_text("(" + "x = 1\n" * 400, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pairs", "--roots", str(corpus), "--out", str(out), "--seed", "2"]) == 0
    assert shard_bytes(alone)
    assert shard_bytes(out) == shard_bytes(alone)


@pytest.mark.parametrize("argv", [
    ["prepare", "--roots", ".", "--out", "m.jsonl", "--seed", "3"],
    ["batch", "--shards", ".", "--out", "b.jsonl", "--mask-prob", "0.5"],
    ["pairs", "--roots", ".", "--out", "out", "--budget", "100"],
])
def test_flag_the_subcommand_does_not_read_is_usage_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert not any(tmp_path.iterdir())


_MANIFEST_ROW = {"path": "a.py", "language": "python", "source": "a.py",
                 "hash": "0" * 64, "split": "train"}


@pytest.mark.parametrize("bad_line", [
    '{"path": "a.py", "language": "python", "hash": ',
    '{"path": "a.py", "language": "python", "source": "a.py", "split": "train"}',
    *(json.dumps({**_MANIFEST_ROW, key: value}) for key, value in [
        ("path", 5), ("source", 5), ("language", 5), ("hash", 5), ("split", "test"),
        ("split", None)]),
])
def test_pairs_malformed_manifest_is_data_error(tmp_path, capsys, bad_line):
    manifest = tmp_path / "m.jsonl"
    good = json.dumps(_MANIFEST_ROW)
    manifest.write_text(good + "\n" + bad_line + "\n", encoding="utf-8")
    assert main(["pairs", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    assert "line 2" in capsys.readouterr().err


def _append_line_that_is_not_utf8(path):
    """Add a line holding a byte that is not UTF-8 to a JSONL file, and
    return its line number."""
    lines = path.read_bytes().splitlines()
    path.write_bytes(b"\n".join([*lines, b'{"id": "caf\xe9"}']) + b"\n")
    return len(lines) + 1


@pytest.mark.parametrize("subcommand", ["pairs", "train-toy", "batch", "inspect"])
def test_jsonl_input_that_is_not_utf8_is_data_error(small_corpus, small_shards, tmp_path, capsys,
                                                    subcommand):
    out = tmp_path / "out"
    if subcommand == "pairs":
        bad = tmp_path / "m.jsonl"
        assert main(["prepare", "--roots", str(small_corpus), "--out", str(bad)]) == 0
        args = ["pairs", "--manifest", str(bad), "--out", str(out)]
    else:
        bad = tmp_path / "shards" / "train" / "python-00000.jsonl"
        bad.parent.mkdir(parents=True)
        bad.write_bytes((small_shards / "train" / bad.name).read_bytes())
        args = {"train-toy": ["train-toy", "--steps", "2", "--out", str(out)],
                "batch": ["batch", "--out", str(out)],
                "inspect": ["inspect"]}[subcommand] + ["--shards", str(bad.parent.parent)]
    line = _append_line_that_is_not_utf8(bad)
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"line {line}: not valid UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--valid-repos", "--ext-map"])
def test_text_file_that_is_not_utf8_is_data_error(small_corpus, tmp_path, capsys, flag):
    listing = tmp_path / "listing.txt"
    listing.write_bytes(b"caf\xe9\n")
    out = tmp_path / "out"
    assert main(["pairs", "--roots", str(small_corpus), "--out", str(out), flag, str(listing)]) == 2
    err = capsys.readouterr().err
    assert "listing.txt: not valid UTF-8" in err and "Traceback" not in err
    assert not out.exists()


def test_pairs_missing_root_is_data_error(tmp_path, capsys):
    missing = tmp_path / "no_such_root"
    assert main(["pairs", "--roots", str(missing), "--out", str(tmp_path / "out")]) == 2
    assert "no_such_root" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pairs_into_directory_with_shards_is_data_error(small_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pairs", "--roots", str(small_corpus), "--out", str(out), "--shard-size", "5"]) == 0
    first = shard_bytes(out)
    assert len(first) > 1
    capsys.readouterr()
    # refused before ingest: a root that does not exist goes unread
    for roots in ([str(small_corpus)], [str(tmp_path / "no_such_root")]):
        assert main(["pairs", "--roots", *roots, "--out", str(out), "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "already holds shards" in err and ".jsonl" in err and "Traceback" not in err
        assert shard_bytes(out) == first


@pytest.mark.parametrize("subcommand", ["batch", "train-toy", "inspect"])
@pytest.mark.parametrize("state", ["missing", "empty"])
def test_shard_dir_without_shards_is_data_error(tmp_path, capsys, subcommand, state):
    shards, out = tmp_path / "shards", tmp_path / "out"
    if state == "empty":
        (shards / "train").mkdir(parents=True)
        (shards / "valid").mkdir()
    args = {"batch": ["batch", "--out", str(out)],
            "train-toy": ["train-toy", "--steps", "2", "--out", str(out)],
            "inspect": ["inspect"]}[subcommand]
    assert main([*args, "--shards", str(shards)]) == 2
    err = capsys.readouterr().err
    assert f"no shard (*.jsonl) under {shards}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["pairs", "train-toy"])
@pytest.mark.parametrize("content", ['{"seed": 1,', '[1, 2]', '"seed"'])
def test_malformed_config_is_data_error(tmp_path, capsys, subcommand, content):
    cfg = tmp_path / "bad_cfg.json"
    cfg.write_text(content, encoding="utf-8")
    args = {"pairs": ["pairs", "--roots", str(tmp_path), "--out", str(tmp_path / "out")],
            "train-toy": ["train-toy", "--shards", str(tmp_path), "--out", str(tmp_path / "m")]}
    assert main(["--config", str(cfg), *args[subcommand]]) == 2
    assert "bad_cfg.json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "m").exists()



@pytest.mark.parametrize("subcommand,config", [
    ("train-toy", {"steps": "10"}),
    ("train-toy", {"lr": True}),
    ("train-toy", {"include_positive": 1}),
    ("pairs", {"seed": "x"}),
    ("pairs", {"seed": 1.5}),
    ("pairs", {"mask_prob": "0.9"}),
    ("pairs", {"masking_enabled": "no"}),
    ("pairs", {"languages": "python"}),
    ("pairs", {"valid_repos": [1, 2]}),
])
def test_config_value_of_wrong_type_is_data_error(tmp_path, capsys, subcommand, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    args = {"pairs": ["pairs", "--roots", str(tmp_path), "--out", str(tmp_path / "out")],
            "train-toy": ["train-toy", "--shards", str(tmp_path), "--out", str(tmp_path / "m")]}
    assert main(["--config", str(cfg), *args[subcommand]]) == 2
    err = capsys.readouterr().err
    assert repr(next(iter(config))) in err and "cfg.json" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "m").exists()


def test_config_accepts_well_typed_values(small_corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "mask_prob": 1, "stddev_target_len": 40.0,
                               "dedent_enabled": False, "languages": ["python", "c"],
                               "valid_repos": ["python_repo1"], "jobs": 1}),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "pairs", "--roots", str(small_corpus),
                 "--out", str(out)]) == 0
    names = sorted(str(p.relative_to(out)) for p in out.rglob("*.jsonl"))
    assert names == ["train/c-00000.jsonl", "train/python-00000.jsonl",
                     "valid/python-00000.jsonl"]

def test_config_file_flag_precedence(small_corpus, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "mask_prob": 0.5}), encoding="utf-8")
    out_file = tmp_path / "cfg_run"
    code = main(["--config", str(cfg), "pairs", "--roots", str(small_corpus),
                 "--out", str(out_file), "--seed", "9"])
    assert code == 0
    # flag seed beats file seed; file mask_prob beats default
    reference = tmp_path / "ref_run"
    main(["pairs", "--roots", str(small_corpus), "--out", str(reference),
          "--seed", "9", "--mask-prob", "0.5"])
    assert shard_bytes(out_file) == shard_bytes(reference)


def test_unknown_config_key_is_data_error(small_corpus, tmp_path, capsys):
    cfg = tmp_path / "typo_cfg.json"
    cfg.write_text(json.dumps({"mask_prb": 0.1, "sed": 5}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "pairs", "--roots", str(small_corpus),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "typo_cfg.json" in err and "'mask_prb'" in err and "'sed'" in err
    assert not out.exists()


def test_one_config_file_serves_every_subcommand(small_corpus, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "pairs", "seed": 3, "mask_prob": 0.5,
                               "token_budget": 3000, "steps": 5, "dim": 16}),
                   encoding="utf-8")
    shards = tmp_path / "shards"
    assert main(["--config", str(cfg), "pairs", "--roots", str(small_corpus),
                 "--out", str(shards)]) == 0
    assert main(["--config", str(cfg), "batch", "--shards", str(shards),
                 "--out", str(tmp_path / "b.jsonl")]) == 0
    assert main(["--config", str(cfg), "train-toy", "--shards", str(shards),
                 "--out", str(tmp_path / "m")]) == 0
    assert "trained 5 steps" in capsys.readouterr().out
    assert ToyEncoder.load(tmp_path / "m").dim == 16


_REPLAY_FLAGS = {
    "prepare": ["--valid-repos", "valid.txt"],
    "pairs": ["--mean", "60", "--no-masking"],
    "batch": ["--budget", "300"],
    "train-toy": ["--steps", "8", "--d", "16", "--buckets", "512",
                  "--negatives-only-denominator"],
}


@pytest.mark.parametrize("subcommand", sorted(_REPLAY_FLAGS))
def test_echoed_config_replays_to_the_same_output(small_corpus, tmp_path, monkeypatch, caplog,
                                                  subcommand):
    monkeypatch.chdir(tmp_path)
    Path("valid.txt").write_text("python_repo1\n", encoding="utf-8")
    assert main(["pairs", "--roots", str(small_corpus), "--out", "shards", "--seed", "2"]) == 0
    source = ["--shards", "shards"] if subcommand in ("batch", "train-toy") else \
        ["--roots", str(small_corpus)]
    outputs = {}
    for run in ("flags", "replay"):
        Path(run).mkdir()
        caplog.clear()
        config = [] if run == "flags" else ["--config", "echo.json"]
        flags = _REPLAY_FLAGS[subcommand] if run == "flags" else []
        with caplog.at_level(logging.INFO, logger="codegap"):
            assert main([*config, subcommand, *source, "--out", f"{run}/out", *flags]) == 0
        if run == "flags":
            echo = next(r.getMessage() for r in caplog.records if r.name == "codegap")
            Path("echo.json").write_text(echo[len("config "):], encoding="utf-8")
        outputs[run] = {str(p.relative_to(run)): p.read_bytes()
                        for p in sorted(Path(run).rglob("*")) if p.is_file()}
    assert outputs["flags"]
    assert outputs["replay"] == outputs["flags"]


def test_batch_manifest(small_corpus, tmp_path):
    shards = tmp_path / "shards"
    main(["pairs", "--roots", str(small_corpus), "--out", str(shards), "--seed", "2"])
    batches = tmp_path / "batches.jsonl"
    assert main(["batch", "--shards", str(shards), "--out", str(batches),
                 "--budget", "3000"]) == 0
    rows = [json.loads(ln) for ln in batches.read_text().splitlines()]
    assert rows
    for row in rows:
        assert set(row) == {"split", "language", "token_count", "pair_ids"}
        assert row["token_count"] <= 3000


def _embedding_eval_files(tmp_path, vectors):
    qp, cp, rp, ep = (tmp_path / n for n in
                      ("q.jsonl", "c.jsonl", "r.jsonl", "e.jsonl"))
    qp.write_text(json.dumps({"query_id": "q1", "language": "python",
                              "context": "ctx"}) + "\n", encoding="utf-8")
    cp.write_text("\n".join([
        json.dumps({"target_id": "t1", "language": "python", "text": "good"}),
        json.dumps({"target_id": "t2", "language": "python", "text": "bad"}),
    ]) + "\n", encoding="utf-8")
    rp.write_text(json.dumps({"query_id": "q1", "target_id": "t1",
                              "relevance": 1, "is_original": 0}) + "\n", encoding="utf-8")
    ep.write_text("\n".join(json.dumps({"id": i, "vector": v}) for i, v in vectors.items())
                  + "\n", encoding="utf-8")
    return ["eval", "--queries", str(qp), "--candidates", str(cp),
            "--qrels", str(rp), "--embeddings", str(ep)]


def test_eval_with_embeddings(tmp_path, capsys):
    args = _embedding_eval_files(tmp_path, {"q1": [1.0, 0.0], "t1": [0.99, 0.01],
                                            "t2": [0.0, 1.0]})
    report = tmp_path / "report.json"
    code = main([*args, "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "MAP" in out and "MRR" in out
    payload = json.loads(report.read_text())
    assert payload["map"] == 1.0 and payload["mrr"] == 1.0


def test_eval_zero_embedding_is_data_error(tmp_path, capsys):
    args = _embedding_eval_files(tmp_path, {"q1": [1.0, 0.0], "t1": [0.99, 0.01],
                                            "t2": [0.0, 0.0]})
    assert main(args) == 2
    assert "zero vector" in capsys.readouterr().err


@pytest.mark.parametrize("vector,norm", [([1e308, 1e308], "inf"), ([1e-320, 0.0], "0.0")])
@pytest.mark.parametrize("side", ["q1", "t2"])
def test_eval_norm_out_of_float_range_is_data_error(tmp_path, capsys, vector, norm, side):
    vectors = {"q1": [1.0, 0.0], "t1": [0.99, 0.01], "t2": [0.0, 1.0]}
    vectors[side] = vector
    assert main(_embedding_eval_files(tmp_path, vectors)) == 2
    err = capsys.readouterr().err
    assert f"norm is {norm} in float64, not a finite positive number" in err
    assert "zero vector" not in err and "Traceback" not in err


@pytest.mark.parametrize("vector", [["x"], [1.0, None], [[1.0, 0.0], [0.0, 1.0]],
                                    [[1.0], [0.0, 1.0]], [1.0, float("nan")], [True, False],
                                    [1.0]])
def test_eval_malformed_vector_is_data_error(tmp_path, capsys, vector):
    args = _embedding_eval_files(tmp_path, {"q1": [1.0, 0.0], "t1": [0.99, 0.01],
                                            "t2": vector})
    assert main(args) == 2
    assert "line 3" in capsys.readouterr().err


def test_eval_vectors_of_different_lengths_is_data_error(tmp_path, capsys):
    args = _embedding_eval_files(tmp_path, {"q1": [1.0, 0.0], "t1": [0.99, 0.01],
                                            "t2": [0.0, 1.0, 0.5]})
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error" in err.lower()


@pytest.mark.parametrize("name", ["queries", "candidates", "embeddings"])
def test_eval_repeated_id_is_data_error(tmp_path, capsys, name):
    args = _embedding_eval_files(tmp_path, {"q1": [1.0, 0.0], "t1": [0.99, 0.01],
                                            "t2": [0.0, 1.0]})
    path = Path(args[args.index(f"--{name}") + 1])
    rows = path.read_text(encoding="utf-8").splitlines()
    rows.append(rows[0])
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"line {len(rows)}: repeated" in err


@pytest.mark.parametrize("name", ["queries", "candidates", "qrels", "embeddings"])
def test_eval_file_that_is_not_utf8_is_data_error(tmp_path, capsys, name):
    args = _embedding_eval_files(tmp_path, {"q1": [1.0, 0.0], "t1": [0.99, 0.01],
                                            "t2": [0.0, 1.0]})
    line = _append_line_that_is_not_utf8(Path(args[args.index(f"--{name}") + 1]))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"line {line}: not valid UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("name,field,value", [
    ("qrels", "relevance", "high"), ("qrels", "relevance", None), ("qrels", "relevance", 1.0),
    ("qrels", "is_original", "yes"), ("queries", "context", 5),
    ("queries", "language", ["python"]), ("candidates", "text", 5),
])
def test_eval_field_of_wrong_type_is_data_error(tmp_path, capsys, name, field, value):
    args = [*_embedding_eval_files(tmp_path, {})[:7], "--lexical"]
    path = Path(args[args.index(f"--{name}") + 1])
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows.append({**rows[0], field: value})
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"line {len(rows)}" in err and repr(field) in err


def test_eval_unsupported_checkpoint_is_data_error(tmp_path, capsys):
    args = _embedding_eval_files(tmp_path, {})[:7]
    ckpt = tmp_path / "toy.ckpt"
    ToyEncoder.create(seed=0, dim=8, buckets=64).save(ckpt)
    sidecar = Path(str(ckpt) + ".json")
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    sidecar.write_text(json.dumps({**meta, "format_version": 99}), encoding="utf-8")
    assert main([*args, "--model", "toy", "--checkpoint", str(ckpt)]) == 2
    assert "unsupported checkpoint format: 99" in capsys.readouterr().err



@pytest.mark.parametrize("sidecar", [[], {"format_version": 1}, {"tau": "0.1"}, {"tau": None},
                                     {"tau": True}, "{not json"])
def test_eval_malformed_checkpoint_sidecar_is_data_error(tmp_path, capsys, sidecar):
    args = _embedding_eval_files(tmp_path, {})[:7]
    ckpt = tmp_path / "toy.ckpt"
    ToyEncoder.create(seed=0, dim=8, buckets=64).save(ckpt)
    path = Path(str(ckpt) + ".json")
    meta = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(sidecar, dict):
        sidecar = {"format_version": meta["format_version"], **sidecar}
    path.write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar),
                    encoding="utf-8")
    assert main([*args, "--model", "toy", "--checkpoint", str(ckpt)]) == 2
    assert "toy.ckpt.json" in capsys.readouterr().err

_BAD_CHECKPOINT_ARRAYS = {
    "one-dimensional": lambda fh: np.save(fh, np.zeros(64)),
    "transposed": lambda fh: np.save(fh, np.zeros((8, 64))),
    "integers": lambda fh: np.save(fh, np.zeros((64, 8), dtype=np.int64)),
    "pickled-objects": lambda fh: np.save(fh, np.array([[None] * 8] * 64, dtype=object)),
    "npz-archive": lambda fh: np.savez(fh, a=np.zeros((64, 8)), b=np.zeros((64, 8))),
    "not-npy": lambda fh: fh.write(b"not an array"),
    "empty": lambda fh: None,
}


@pytest.mark.parametrize("kind", sorted(_BAD_CHECKPOINT_ARRAYS))
def test_eval_malformed_checkpoint_array_is_data_error(tmp_path, capsys, kind):
    args = _embedding_eval_files(tmp_path, {})[:7]
    ckpt = tmp_path / "toy.ckpt"
    ToyEncoder.create(seed=0, dim=8, buckets=64).save(ckpt)
    with ckpt.open("wb") as fh:
        _BAD_CHECKPOINT_ARRAYS[kind](fh)
    assert main([*args, "--model", "toy", "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "toy.ckpt" in err and "Traceback" not in err


def test_eval_usage_error_without_scorer(tmp_path):
    empty = tmp_path / "x.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["eval", "--queries", str(empty), "--candidates", str(empty),
                 "--qrels", str(empty)]) == 1


@pytest.mark.parametrize("scorers", [
    ["--lexical", "--model", "toy"],
    ["--lexical", "--embeddings", "e.jsonl"],
    ["--model", "toy", "--embeddings", "e.jsonl"],
])
def test_eval_takes_exactly_one_scorer(tmp_path, capsys, scorers):
    empty = tmp_path / "x.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["eval", "--queries", str(empty), "--candidates", str(empty),
                 "--qrels", str(empty), "--checkpoint", str(tmp_path / "c"), *scorers]) == 1
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("scorer", ["lexical", "embeddings"])
def test_eval_checkpoint_needs_toy_model(tmp_path, capsys, scorer):
    args = _embedding_eval_files(tmp_path, {"q1": [1.0, 0.0], "t1": [0.99, 0.01],
                                            "t2": [0.0, 1.0]})
    if scorer == "lexical":
        args = [*args[:7], "--lexical"]
    assert main([*args, "--checkpoint", str(tmp_path / "nonexistent.ckpt")]) == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_eval_missing_file_is_data_error(tmp_path):
    missing = tmp_path / "nope.jsonl"
    assert main(["eval", "--queries", str(missing), "--candidates", str(missing),
                 "--qrels", str(missing), "--lexical"]) == 2


# SHA-256 of the eval report bytes on the seed-5 clone corpus's held-out pool:
# the toy one with a seed-3 random-init checkpoint (d=64, 4,096 buckets), the
# lexical one with the default Jaccard scorer; they pin hashed features,
# ranking, tie order and every metric to the last bit
TOY_REPORT_SHA256 = "7fee1abe9d98177212cf6311da125984707d830850668b0abd7071504dc84b35"
LEXICAL_REPORT_SHA256 = "acec5a627f2b759940bad07a91bba13a7905cbb050744914eb0dc1d3e7ed7605"


@pytest.mark.parametrize("scorer", ["toy", "lexical"])
def test_eval_report_matches_golden_digest(tmp_path, scorer):
    corpus = write_clone_corpus(tmp_path / "clone", seed=5)
    args = ["eval", "--queries", str(corpus.queries_path),
            "--candidates", str(corpus.candidates_path), "--qrels", str(corpus.qrels_path),
            "--out", str(tmp_path / "report.json")]
    if scorer == "toy":
        ToyEncoder.create(seed=3, dim=64, buckets=4096).save(tmp_path / "toy.ckpt")
        args += ["--model", "toy", "--checkpoint", str(tmp_path / "toy.ckpt")]
    else:
        args.append("--lexical")
    assert main(args) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == {"toy": TOY_REPORT_SHA256, "lexical": LEXICAL_REPORT_SHA256}[scorer]


# SHA-256 of the checkpoint and its sidecar that `train-toy` with validation
# writes from the pairs of a small seed-5 clone corpus with its validation
# repos held out; it pins bucket counts, packing, the loss and its gradient,
# validation MRR and the best-state pick to the last bit
TOY_CHECKPOINT_SHA256 = "d8d56cb17db3bdb1d573d0c7575bddace5cb14e93a8be92aa937dd9af5094385"
TOY_SIDECAR_SHA256 = "afda4f41d99cdd43763e208312d6bdfe41f6aaaae1d4ff49ca477eeeed1d6490"


def test_train_toy_matches_golden_digest(tmp_path, capsys):
    corpus = write_clone_corpus(tmp_path / "clone", seed=5, variants=10, train_variants=6,
                                valid_variants=2)
    valid = tmp_path / "valid_repos.txt"
    valid.write_text("\n".join(corpus.valid_repos) + "\n", encoding="utf-8")
    shards, ckpt = tmp_path / "shards", tmp_path / "toy.ckpt"
    assert main(["pairs", "--roots", str(corpus.corpus_dir), "--out", str(shards),
                 "--seed", "5", "--valid-repos", str(valid)]) == 0
    assert main(["train-toy", "--shards", str(shards), "--out", str(ckpt), "--steps", "40",
                 "--seed", "5", "--d", "64", "--buckets", "4096", "--eval-every", "10",
                 "--lr", "0.5", "--budget", "2000"]) == 0
    assert "best valid MRR 0.1272 @ step 40" in capsys.readouterr().out
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == TOY_CHECKPOINT_SHA256
    assert (hashlib.sha256(Path(str(ckpt) + ".json").read_bytes()).hexdigest()
            == TOY_SIDECAR_SHA256)


def test_train_toy_and_eval_model(small_corpus, tmp_path, capsys):
    shards = tmp_path / "shards"
    main(["pairs", "--roots", str(small_corpus), "--out", str(shards), "--seed", "4"])
    ckpt = tmp_path / "toy.ckpt"
    code = main(["train-toy", "--shards", str(shards), "--out", str(ckpt),
                 "--steps", "12", "--lr", "0.5", "--seed", "1",
                 "--d", "16", "--buckets", "512", "--budget", "2000"])
    assert code == 0
    assert ckpt.exists() and Path(str(ckpt) + ".json").exists()
    capsys.readouterr()

    # deterministic re-run produces identical checkpoint bytes
    ckpt2 = tmp_path / "toy2.ckpt"
    main(["train-toy", "--shards", str(shards), "--out", str(ckpt2),
          "--steps", "12", "--lr", "0.5", "--seed", "1",
          "--d", "16", "--buckets", "512", "--budget", "2000"])
    assert ckpt.read_bytes() == ckpt2.read_bytes()

    # negatives-only variant trains too and differs
    ckpt3 = tmp_path / "toy3.ckpt"
    code = main(["train-toy", "--shards", str(shards), "--out", str(ckpt3),
                 "--steps", "12", "--lr", "0.5", "--seed", "1", "--d", "16",
                 "--buckets", "512", "--budget", "2000",
                 "--negatives-only-denominator"])
    assert code == 0
    assert ckpt.read_bytes() != ckpt3.read_bytes()


def test_train_toy_creates_missing_out_dir(small_corpus, tmp_path):
    shards = tmp_path / "shards"
    assert main(["pairs", "--roots", str(small_corpus), "--out", str(shards)]) == 0
    ckpt = tmp_path / "new" / "m.ckpt"
    assert main(["train-toy", "--shards", str(shards), "--out", str(ckpt),
                 "--steps", "2", "--d", "16", "--buckets", "512"]) == 0
    assert ckpt.is_file() and Path(str(ckpt) + ".json").is_file()


@pytest.mark.parametrize("key,flag", [("shard_size", "--shard-size"), ("jobs", "--jobs")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_count_below_one_is_data_error(small_corpus, tmp_path, capsys, key, flag, source):
    args = ["pairs", "--roots", str(small_corpus), "--out", str(tmp_path / "out")]
    if source == "flag":
        args += [flag, "0"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}), encoding="utf-8")
        args = ["--config", str(cfg), *args]
    assert main(args) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# keys that only train-toy reads
_TRAIN_KEYS = {"dim", "buckets", "tau", "lr", "warmup_frac", "decay_power", "valid_cap", "steps",
               "eval_every"}


@pytest.fixture(scope="module")
def small_shards(small_corpus, tmp_path_factory):
    shards = tmp_path_factory.mktemp("cli_shards")
    assert main(["pairs", "--roots", str(small_corpus), "--out", str(shards)]) == 0
    return shards


@pytest.mark.parametrize("key,flag,value", [
    ("pairs_per_input", "--pairs-per-input", -1),
    ("mask_prob", "--mask-prob", 1.5),
    ("skip_pair_prob", "--skip-prob", -1),
    ("dim", "--d", 0),
    ("buckets", "--buckets", 0),
    ("tau", "--tau", -0.1),
    ("valid_cap", "--valid-cap", -1),
    ("steps", "--steps", -1),
    ("token_budget", "--budget", 1),
    ("mean_target_len", "--mean", float("nan")),
    ("mean_target_len", "--mean", float("inf")),
    ("stddev_target_len", "--stddev", float("inf")),
    ("stddev_target_len", "--stddev", float("nan")),
    ("tau", "--tau", float("inf")),
    ("lr", "--lr", float("nan")),
    ("lr", "--lr", 0),
    ("min_target_len", "--min-len", 0),
    ("min_target_len", "--min-len", 600),  # above the default max_target_len, 512
    ("truncation_threshold", "--threshold", -5),
    ("eval_every", "--eval-every", -5),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_value_out_of_range_is_data_error(small_corpus, small_shards, tmp_path, capsys,
                                          key, flag, value, source):
    out = tmp_path / "out"
    if key in _TRAIN_KEYS:
        args = ["train-toy", "--shards", str(small_shards), "--out", str(out)]
        if key != "steps":
            args += ["--steps", "2"]
    elif key == "token_budget":
        args = ["batch", "--shards", str(small_shards), "--out", str(out)]
    else:
        args = ["pairs", "--roots", str(small_corpus), "--out", str(out)]
    if source == "flag":
        args += [flag, str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        args = ["--config", str(cfg), *args]
    capsys.readouterr()
    assert main(args) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config,keys", [
    ({"segment_min_len": 0}, ["segment_min_len"]),
    ({"segment_min_len": 900}, ["segment_min_len", "segment_max_len"]),
    ({"segment_min_len": 300, "segment_max_len": 200}, ["segment_min_len", "segment_max_len"]),
    ({"max_span_attempts": 0}, ["max_span_attempts"]),
    ({"min_target_len": 40, "max_target_len": 20}, ["min_target_len", "max_target_len"]),
    ({"warmup_frac": -5}, ["warmup_frac"]),
    ({"warmup_frac": 1.5}, ["warmup_frac"]),
    ({"decay_power": -3}, ["decay_power"]),
    ({"decay_power": float("inf")}, ["decay_power"]),
    ({"max_extractions": -1}, ["max_extractions"]),
])
def test_config_only_value_out_of_range_is_data_error(small_corpus, small_shards, tmp_path, capsys,
                                                      config, keys):
    # these keys have no flag, or are out of range only as a pair; segment
    # lengths are drawn only once a file passes the truncation threshold, so
    # a low threshold would reach them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncation_threshold": 50, **config}), encoding="utf-8")
    out = tmp_path / "out"
    if config.keys() & _TRAIN_KEYS:
        args = ["train-toy", "--shards", str(small_shards), "--out", str(out), "--steps", "2"]
    else:
        args = ["pairs", "--roots", str(small_corpus), "--out", str(out)]
    capsys.readouterr()
    assert main(["--config", str(cfg), *args]) == 2
    err = capsys.readouterr().err
    assert all(repr(key) in err for key in keys)
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["prepare", "pairs"])
def test_unknown_langs_name_is_data_error(small_corpus, tmp_path, capsys, subcommand):
    out = tmp_path / "out"
    assert main([subcommand, "--roots", str(small_corpus), "--out", str(out),
                 "--langs", "python", "pyhton"]) == 2
    assert "'pyhton'" in capsys.readouterr().err
    assert not out.exists()


def test_inspect_shows_occlusion(small_corpus, tmp_path, capsys):
    shards = tmp_path / "shards"
    main(["pairs", "--roots", str(small_corpus), "--out", str(shards),
          "--seed", "6", "--mask-prob", "1.0", "--skip-prob", "0.0"])
    capsys.readouterr()
    train_dir = shards / "train"
    shard = sorted(train_dir.glob("*.jsonl"))[0]
    records = read_jsonl(shard)
    masked = next(r for r in records if r.meta["aliases"])
    code = main(["inspect", "--file", str(shard), "--id", masked.pair_id])
    assert code == 0
    out = capsys.readouterr().out
    assert f"pair {masked.pair_id}" in out
    assert ">>> <mask> <<<" in out
    for name, alias in masked.meta["aliases"].items():
        assert alias in out
        assert "masked in" in out

    # verify the printed pair respects occlusion at the token level
    from codegap.tokenizer import tokenize

    lang = get_language(masked.language)
    ctx_ids = {t.text for t in tokenize(masked.context, lang) if t.kind == "identifier"}
    tgt_ids = {t.text for t in tokenize(masked.target, lang) if t.kind == "identifier"}
    for name in masked.meta["aliases"]:
        assert (name in ctx_ids) != (name in tgt_ids)


@pytest.mark.parametrize("key,value", [("aliases", ["x", "y"]), ("aliases", {"x": 1}),
                                       ("aliases", "x"), ("dedent_cols", "4"), ("dedent_cols", True),
                                       ("dedent_cols", 1.5), ("skipped_masking", "no"),
                                       ("skipped_masking", 0)])
@pytest.mark.parametrize("where", ["--file", "--shards"])
def test_inspect_malformed_meta_is_data_error(tmp_path, capsys, key, value, where):
    shard = tmp_path / "train" / "python-00000.jsonl"
    shard.parent.mkdir()
    meta = {"source": "a.py", "dedent_cols": 0, "skipped_masking": False, "aliases": {}, key: value}
    shard.write_text(json.dumps({"id": "p1", "language": "python", "context": "x",
                                 "target": "y", "meta": meta}) + "\n", encoding="utf-8")
    named = shard if where == "--file" else tmp_path
    assert main(["inspect", where, str(named), "--id", "p1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{named}: pair 'p1': meta {key!r} must be" in err


def test_inspect_without_inputs_is_usage_error():
    assert main(["inspect"]) == 1


def test_config_echo_is_first_log_line(small_corpus, tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="codegap"):
        main(["prepare", "--roots", str(small_corpus),
              "--out", str(tmp_path / "m.jsonl")])
    messages = [r.getMessage() for r in caplog.records if r.name == "codegap"]
    assert messages
    assert messages[0].startswith("config ")
    payload = json.loads(messages[0][len("config "):])
    assert payload["subcommand"] == "prepare"
