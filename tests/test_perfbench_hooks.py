"""The benchmark's tracer wraps codegap names by lookup; a rename must fail here."""

import importlib.util
import random
import sysconfig
from collections import Counter
from pathlib import Path

from _oracles import preorder_rows, real_sources
from codegap.cli import main
from codegap.contrastive import ToyEncoder
from codegap.pipeline import PipelineConfig, truncate_file
from codegap.synth import write_clone_corpus
from codegap.tree import parse

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name_and_restores_it():
    layers = load_layers()
    wrapped = [(path, attr) for path, attr, *_ in layers.SPANS + layers.OBSERVED]
    owners = [(layers._owner(path), attr) for path, attr in wrapped]
    originals = [vars(owner).get(attr) for owner, attr in owners]
    restore = layers.install(layers.Tracer())  # raises LookupError on a missing name
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(owners, originals))
    finally:
        restore()
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(owners, originals))


def test_traced_eval_records_every_rank_pool_layer(tmp_path, capsys):
    # the rank_pool workload's two evals, traced: an eval call that stops going
    # through a wrapped name leaves that layer at zero calls
    layers = load_layers()
    corpus = write_clone_corpus(tmp_path / "clone", seed=5)
    checkpoint = tmp_path / "toy.ckpt"
    ToyEncoder.create(seed=3, dim=16, buckets=512).save(checkpoint)
    files = ["--queries", str(corpus.queries_path), "--candidates", str(corpus.candidates_path),
             "--qrels", str(corpus.qrels_path)]
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        assert main(["--log-level", "WARNING", "eval", *files, "--model", "toy",
                     "--checkpoint", str(checkpoint)]) == 0
        assert main(["--log-level", "WARNING", "eval", *files, "--lexical"]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert layers.silent_zeros("rank_pool", tracer) == []
    assert tracer.counts["retrieval.load.calls"] == 6


def test_tree_node_count_is_one_per_group_and_leaf(parsed_corpus):
    # tree.nodes, as the tracer's hook on parse counts it, is the number of
    # preorder rows: every group and every leaf once, on parsed trees and on
    # the shortened trees and segments that truncation cuts from real files
    trees = [tree for _, tree in parsed_corpus]
    cfg = PipelineConfig(truncation_threshold=200, segment_min_len=20, segment_max_len=120)
    rng = random.Random(0)
    for pattern, lang in ((str(Path(sysconfig.get_paths()["stdlib"]) / "*.py"), "python"),
                          ("/usr/include/*.h", "c")):
        for source in real_sources(pattern, 10):
            result = truncate_file(parse(source, lang), rng, cfg)
            trees += [result.shortened, *result.segments]
    assert any(tok.kind == "fold" for tree in trees for tok in tree.leaves)
    nodes = load_layers()._nodes
    for tree in trees:
        counts = Counter()
        nodes(counts, tree, (), {})
        assert counts["nodes"] == len(preorder_rows(tree).kinds)
