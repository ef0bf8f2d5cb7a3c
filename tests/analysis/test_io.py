"""Unit tests for repro.analysis.io."""

from repro.analysis.io import load_json, save_json


class TestJsonHelpers:
    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "data.json"
        save_json({"k": 1}, path)
        assert load_json(path) == {"k": 1}
