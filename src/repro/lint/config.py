"""``[tool.reprolint]`` configuration shared by the CLI and CI.

One source of truth: paths to walk, per-rule enable/disable, baseline
location and per-rule option tables all come from ``pyproject.toml`` at
the lint root.  Missing file or missing table falls back to the defaults
below, which encode this repo's layout — so ``python -m repro.lint`` from
a fresh checkout does the right thing even before reading any config.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["DEFAULTS", "LintConfig", "load_config"]

#: Default configuration, mirrored by the committed ``[tool.reprolint]``
#: block in pyproject.toml.  Rule option tables are keyed by lowercase
#: rule id.
DEFAULTS: dict = {
    "paths": ["src", "tests", "benchmarks"],
    "baseline": "src/repro/lint/baseline.json",
    "disable": [],
    "exclude": [],
    "rep002": {
        # The sanctioned context factory lives here; its own
        # get_context calls are the implementation, not a violation.
        "allow": ["src/repro/runtime/mp.py"],
    },
    "rep003": {
        # Thread-owning modules where the lock-discipline inference runs.
        "modules": [
            "src/repro/serve/*.py",
            "src/repro/runtime/predictor.py",
            "src/repro/data/cache.py",
            "src/repro/lru.py",
        ],
    },
    "rep004": {
        # The one module allowed to call SharedMemory(create=True).
        "allow": ["src/repro/runtime/shm.py"],
    },
    "rep005": {
        "manifest": "src/repro/lint/cache_key_manifest.json",
        "cache_module": "src/repro/data/cache.py",
        "version_name": "CACHE_VERSION",
        "key_function": "label_key",
        "dataclasses": [
            "src/repro/sim/logicsim.py::SimConfig",
            "src/repro/sim/faults.py::FaultConfig",
            "src/repro/sim/workload.py::Workload",
        ],
    },
}


@dataclass
class LintConfig:
    """Resolved lint configuration rooted at one project directory."""

    root: Path
    paths: list[str] = field(default_factory=lambda: list(DEFAULTS["paths"]))
    baseline: str = DEFAULTS["baseline"]
    disable: list[str] = field(default_factory=list)
    exclude: list[str] = field(default_factory=list)
    rule_options: dict[str, dict] = field(default_factory=dict)

    def rule_option(self, rule_id: str, key: str, default=None):
        table = self.rule_options.get(rule_id.lower(), {})
        if key in table:
            return table[key]
        fallback = DEFAULTS.get(rule_id.lower(), {})
        return fallback.get(key, default)

    @property
    def baseline_path(self) -> Path:
        p = Path(self.baseline)
        return p if p.is_absolute() else self.root / p


def load_config(root: Path | str) -> LintConfig:
    """Read ``[tool.reprolint]`` from ``<root>/pyproject.toml``.

    A missing pyproject or missing table yields the defaults; scalar
    keys override individually, rule tables merge key-by-key over
    :data:`DEFAULTS`.
    """
    root = Path(root).resolve()
    table: dict = {}
    pyproject = root / "pyproject.toml"
    if pyproject.is_file():
        with pyproject.open("rb") as fh:
            data = tomllib.load(fh)
        table = data.get("tool", {}).get("reprolint", {}) or {}

    rule_options: dict[str, dict] = {}
    for key, value in table.items():
        if isinstance(value, dict):
            rule_options[key.lower()] = dict(value)

    return LintConfig(
        root=root,
        paths=list(table.get("paths", DEFAULTS["paths"])),
        baseline=str(table.get("baseline", DEFAULTS["baseline"])),
        disable=[str(d).upper() for d in table.get("disable", [])],
        exclude=list(table.get("exclude", [])),
        rule_options=rule_options,
    )
