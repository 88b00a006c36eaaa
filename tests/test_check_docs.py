"""The docs checker's spec-key rule: a ``--set KEY=`` line in the docs
must name a field of the scenario spec."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    path = ROOT / "docs" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "key",
    [
        "seed",
        "mode",
        "scenario.mode",
        "cluster.shards",
        "scheduler.kwargs.epsilon",
        "workload.preset",
    ],
)
def test_spec_keys_resolve(check_docs, key):
    assert check_docs.spec_key_exists(key)


@pytest.mark.parametrize(
    "key", ["cluster.shard_count", "cluster", "shards", "a.b.c", "gateway.x"]
)
def test_unknown_keys_do_not(check_docs, key):
    assert not check_docs.spec_key_exists(key)


def test_stale_set_line_is_reported_with_its_line(check_docs):
    text = (
        "repro-scenario run spec.toml --set section.key=VALUE\n"
        "    --set cluster.shards=4 --set cluster.shard_count=50 \\\n"
    )
    errors = []
    check_docs.check_spec_keys(text, "doc.md", errors)
    assert errors == [
        "doc.md:2: --set cluster.shard_count= names no spec key"
    ]
