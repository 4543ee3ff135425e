"""Tests for the linter's tooling layer: SARIF output, the
incremental cache, the ``--fix`` autofixer, ``--stats-json``, and the
noqa typo guard (FC000)."""

import json
import pathlib
import textwrap

import pytest

from repro.checks.cache import CACHE_VERSION, CheckCache
from repro.checks.fixes import fix_paths, fix_source
from repro.checks.linter import RULES, check_paths, main
from repro.checks.sarif import SARIF_VERSION, to_sarif

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_PATH = (
    pathlib.Path(__file__).parent / "fixtures" / "sarif-2.1.0-trimmed.schema.json"
)


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


BAD_SOURCE = """\
# repro-checks-module: repro.sim.fixture_tooling
import time


def tick():
    return time.time()
"""


class TestSarif:
    def _sarif(self, tmp_path):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        result = check_paths([path])
        assert result.findings, "fixture must produce at least one finding"
        return to_sarif(result.findings, result.suppressed)

    def test_validates_against_trimmed_schema(self, tmp_path):
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(self._sarif(tmp_path), schema)

    def test_version_and_rule_descriptors(self, tmp_path):
        doc = self._sarif(tmp_path)
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        run = doc["runs"][0]
        ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        # Every live rule plus the FC000 pseudo-rule gets a descriptor.
        assert ids == set(RULES) | {"FC000"}

    def test_results_carry_location_and_level(self, tmp_path):
        run = self._sarif(tmp_path)["runs"][0]
        result = run["results"][0]
        assert result["ruleId"] == "FC001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1

    def test_suppressed_findings_marked_in_source(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.fixture_tooling
            import time


            def tick():
                return time.time()  # noqa: FC001
            """,
        )
        result = check_paths([path])
        assert not result.findings and len(result.suppressed) == 1
        doc = to_sarif(result.findings, result.suppressed)
        run = doc["runs"][0]
        assert run["results"][0]["suppressions"][0]["kind"] == "inSource"
        jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))

    def test_cli_writes_sarif_file(self, tmp_path, capsys):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        out = tmp_path / "out.sarif"
        code = main(
            [str(path), "--format", "sarif", "--output", str(out), "--no-cache"]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
        # Human summary still goes to stdout when SARIF goes to a file.
        assert "finding(s)" in capsys.readouterr().out

    def test_cli_sarif_stdout_is_pure_json(self, tmp_path, capsys):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        main([str(path), "--format", "sarif", "--no-cache", "--stats"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"


class TestIncrementalCache:
    def test_warm_run_is_finding_identical(self, tmp_path):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        cache_path = tmp_path / "cache.json"

        cache = CheckCache(cache_path)
        cold = check_paths([path], cache=cache)
        cache.save()
        assert cold.cache_hits == 0 and cold.cache_misses > 0

        cache = CheckCache(cache_path)
        warm = check_paths([path], cache=cache)
        assert warm.cache_hit_rate == 1.0
        assert [
            (f.code, f.line, f.col, f.message) for f in cold.findings
        ] == [(f.code, f.line, f.col, f.message) for f in warm.findings]

    def test_edit_invalidates_only_changed_file(self, tmp_path):
        bad = _write(tmp_path, "bad.py", BAD_SOURCE)
        clean = _write(
            tmp_path,
            "clean.py",
            """\
            # repro-checks-module: repro.sim.fixture_clean
            def nothing():
                return 0
            """,
        )
        cache_path = tmp_path / "cache.json"
        cache = CheckCache(cache_path)
        check_paths([bad, clean], cache=cache)
        cache.save()

        bad.write_text(BAD_SOURCE + "\n\nX = 1\n")
        cache = CheckCache(cache_path)
        warm = check_paths([bad, clean], cache=cache)
        assert warm.cache_hits > 0 and warm.cache_misses > 0
        assert [f.code for f in warm.findings] == ["FC001"]

    def test_corrupt_cache_degrades_to_cold(self, tmp_path):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        cache = CheckCache(cache_path)
        result = check_paths([path], cache=cache)
        cache.save()
        assert [f.code for f in result.findings] == ["FC001"]
        # And the save leaves a loadable cache behind.
        payload = json.loads(cache_path.read_text())
        assert payload["version"] == CACHE_VERSION

    def test_older_version_cache_is_discarded(self, tmp_path):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        cache_path = tmp_path / "cache.json"
        cache = CheckCache(cache_path)
        cold = check_paths([path], cache=cache)
        cache.save()
        # The same entries stamped with version 3 (whose summaries
        # carried the counter-contract fields), with the cached
        # findings emptied: replaying them would hide FC001.
        payload = json.loads(cache_path.read_text())
        payload["version"] = 3
        for entry in payload["results"].values():
            entry["findings"] = []
        cache_path.write_text(json.dumps(payload))
        cache = CheckCache(cache_path)
        result = check_paths([path], cache=cache)
        assert result.cache_hits == 0
        assert result.findings == cold.findings
        assert result.suppressed == cold.suppressed

    def test_select_change_invalidates_findings(self, tmp_path):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        cache_path = tmp_path / "cache.json"
        cache = CheckCache(cache_path)
        assert not check_paths(
            [path], select={"FC002"}, cache=cache
        ).findings
        cache.save()
        # Same content, different select: must not replay FC002's
        # (empty) cached findings for the full-rule run.
        cache = CheckCache(cache_path)
        result = check_paths([path], cache=cache)
        assert [f.code for f in result.findings] == ["FC001"]


class TestAutofix:
    def test_fc008_and_fc007_round_trip(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.fixture_fixable
            def record(name, seen=[]):
                seen.append(name)
                return seen


            def close_enough(a, b):
                return a == 0.5
            """,
        )
        fixed = fix_paths([path])
        assert fixed == {str(path): 2}
        source = path.read_text()
        assert "seen=None" in source
        assert "if seen is None:" in source
        assert "seen = []" in source
        assert "math.isclose(a, 0.5)" in source
        assert source.splitlines()[1] == "import math"
        # The rewritten file must lint clean and stay parseable.
        assert check_paths([path]).ok

    def test_not_equal_becomes_not_isclose(self, tmp_path):
        new, n = fix_source(
            "# repro-checks-module: repro.sim.fixture_ne\n"
            "def diverged(a):\n"
            "    return a != 1.0\n",
            "repro.sim.fixture_ne",
        )
        assert n == 1
        assert "not math.isclose(a, 1.0)" in new

    def test_noqa_lines_left_alone(self, tmp_path):
        source = (
            "# repro-checks-module: repro.sim.fixture_noqa\n"
            "def record(name, seen=[]):  # noqa: FC008\n"
            "    return seen\n"
        )
        new, n = fix_source(source, "repro.sim.fixture_noqa")
        assert n == 0 and new == source

    def test_fix_is_idempotent(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.fixture_idem
            def record(name, seen=[]):
                return seen
            """,
        )
        assert fix_paths([path]) == {str(path): 1}
        once = path.read_text()
        assert fix_paths([path]) == {}
        assert path.read_text() == once


class TestStatsJson:
    def test_payload_shape(self, tmp_path):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        stats_path = tmp_path / "stats.json"
        main(
            [
                str(path),
                "--stats-json",
                str(stats_path),
                "--cache-path",
                str(tmp_path / "cache.json"),
            ]
        )
        payload = json.loads(stats_path.read_text())
        assert payload["files_checked"] == 1
        assert payload["findings"] == 1
        assert payload["suppressed"] == 0
        assert payload["findings_by_rule"] == {"FC001": 1}
        assert payload["rules"] == sorted(RULES)
        assert set(payload["cache"]) == {"hits", "misses", "hit_rate"}

    def test_cold_and_warm_agree_modulo_cache(self, tmp_path):
        path = _write(tmp_path, "mod.py", BAD_SOURCE)
        cache_path = tmp_path / "cache.json"

        def run():
            cache = CheckCache(cache_path)
            result = check_paths([path], cache=cache)
            cache.save()
            payload = result.stats_dict()
            del payload["cache"]
            return payload

        assert run() == run()


class TestNoqaGuard:
    def test_unknown_fc_code_reports_fc000(self, tmp_path):
        # The noqa comment is assembled at runtime so this test file's
        # own source never contains an unknown-code noqa line.
        path = _write(
            tmp_path,
            "mod.py",
            "# repro-checks-module: repro.sim.fixture_typo\n"
            "def nothing():\n"
            "    return 0  # noqa" + ": FC999\n",
        )
        result = check_paths([path])
        assert [f.code for f in result.findings] == ["FC000"]
        assert "FC999" in result.findings[0].message
        assert "typo" in result.findings[0].message

    def test_foreign_codes_ignored(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.fixture_foreign
            def nothing(x):
                return x  # noqa: E501
            """,
        )
        assert check_paths([path]).ok

    def test_fc000_cannot_be_suppressed(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "# repro-checks-module: repro.sim.fixture_meta\n"
            "def nothing():\n"
            "    return 0  # noqa" + ": FC000, FC999\n",
        )
        result = check_paths([path])
        # Both FC000 (not a suppressible rule) and FC999 (no such
        # rule) are flagged, and neither report is itself suppressed.
        assert [f.code for f in result.findings] == ["FC000", "FC000"]
        assert not result.suppressed
