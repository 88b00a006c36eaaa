"""Unit tests for repro.dag.serialize."""

import json

import pytest

from repro.dag import (
    structure_from_dict,
    structure_from_json,
    structure_to_dict,
    structure_to_dot,
    structure_to_json,
)
from repro.workloads import WorkloadConfig, generate_workload


class TestDictRoundTrip:
    def test_round_trip(self, diamond):
        data = structure_to_dict(diamond)
        back = structure_from_dict(data)
        assert back == diamond
        assert back.name == diamond.name

    def test_dict_is_json_compatible(self, diamond):
        data = structure_to_dict(diamond)
        json.dumps(data)  # must not raise

    def test_version_field(self, diamond):
        assert structure_to_dict(diamond)["version"] == 1

    def test_unknown_version_rejected(self, diamond):
        data = structure_to_dict(diamond)
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            structure_from_dict(data)

    def test_missing_edges_defaults_empty(self):
        back = structure_from_dict({"version": 1, "work": [1.0, 2.0]})
        assert back.num_edges == 0


class TestDictEncodingPinned:
    def test_bytes_match_the_numpy_walk(self):
        """The dict built from the cached Python data dumps to the same
        JSON bytes as one built by walking the numpy work array and the
        edge generator, over a seeded mixed workload."""
        specs = generate_workload(
            WorkloadConfig(n_jobs=300, m=16, load=2.0, family="mixed", seed=7)
        )
        assert len({spec.structure.name for spec in specs}) > 3
        for spec in specs:
            structure = spec.structure
            walked = {
                "version": 1,
                "name": structure.name,
                "work": [float(w) for w in structure.work],
                "edges": [[u, v] for u, v in structure.edges()],
            }
            assert json.dumps(structure_to_dict(structure)) == json.dumps(walked)


class TestJsonRoundTrip:
    def test_round_trip(self, diamond):
        text = structure_to_json(diamond, indent=2)
        back = structure_from_json(text)
        assert back == diamond

    def test_compact(self, diamond):
        text = structure_to_json(diamond)
        assert "\n" not in text


class TestDot:
    def test_dot_contains_nodes_and_edges(self, diamond):
        dot = structure_to_dot(diamond)
        assert dot.startswith('digraph "diamond"')
        assert "n0 -> n1;" in dot
        assert 'n2 [label="2 (3)"];' in dot
        assert dot.rstrip().endswith("}")
