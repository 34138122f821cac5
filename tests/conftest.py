"""Suite-wide fixtures."""
import pytest


@pytest.fixture(autouse=True)
def parse_cache(tmp_path_factory, monkeypatch):
    """Each test's own, empty dataset parse cache; CLI subprocesses inherit
    it through the environment, so the suite never writes to the home
    directory."""
    root = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "ldlkit"
