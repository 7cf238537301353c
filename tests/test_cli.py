import json
import subprocess
import sys

import numpy as np
import pytest

from quinticlab import cli
from quinticlab.cli import main
from quinticlab.principal import PhiFamily
from quinticlab.instances import complex_to_pair, random_instance
from quinticlab.polynomials import MonicPoly, find_roots, poly_from_roots


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestResolve:
    def test_generator_instance(self, capsys):
        code, payload = run_json(capsys, "resolve", "--seed", "42", "--index", "0")
        assert code == 0
        assert payload["ok"] is True
        assert len(payload["degree12_coeffs"]) == 12
        assert max(payload["residuals"].values()) < 1e-6

    def test_degenerate_roots_exit_3(self, tmp_path, capsys):
        path = tmp_path / "degen.json"
        path.write_text(json.dumps({"roots": [[0.0, 0.0]] * 5}), encoding="utf-8")
        assert main(["resolve", "--roots", str(path)]) == 3

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["resolve", "--roots", str(path)]) == 2

    def test_no_source_exit_2(self):
        assert main(["resolve"]) == 2

    def test_counting_tolerance_is_not_an_option(self):
        # resolve counts no values, so it takes no --dedup-tol.
        assert main(["resolve", "--seed", "42", "--dedup-tol", "1e-7"]) == 2

    def test_two_sources_exit_2(self, tmp_path):
        path = tmp_path / "roots.json"
        path.write_text(
            json.dumps({"roots": [complex_to_pair(z) for z in random_instance(1, 0)]}),
            encoding="utf-8",
        )
        assert main(["resolve", "--roots", str(path), "--seed", "1"]) == 2

    def test_explicit_roots_file(self, tmp_path, capsys):
        roots = random_instance(5, 2)
        path = tmp_path / "roots.json"
        path.write_text(
            json.dumps({"roots": [complex_to_pair(z) for z in roots]}),
            encoding="utf-8",
        )
        code, payload = run_json(capsys, "resolve", "--roots", str(path))
        assert code == 0
        assert payload["ok"] is True

    def test_coefficients_file(self, tmp_path, capsys):
        coeffs = poly_from_roots(random_instance(5, 3)).coeffs
        path = tmp_path / "coeffs.json"
        path.write_text(
            json.dumps({"coefficients": [complex_to_pair(z) for z in coeffs]}),
            encoding="utf-8",
        )
        code, payload = run_json(capsys, "resolve", "--coeffs", str(path))
        assert code == 0
        assert payload["ok"] is True

    def test_wrong_key_in_file(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"coefficients": [[0.0, 0.0]] * 5}), encoding="utf-8")
        assert main(["resolve", "--roots", str(path)]) == 2


class TestCoefficientInput:
    # ROADMAP item 15: a well-separated annulus quintic (smallest root gap
    # 0.022) on which a fixed-point stopping test never stopped.
    ITEM15_COEFFS = [
        [-3.7966206461440413, -0.5864510844026034],
        [5.960375703791451, 1.720014235260542],
        [-4.856701240592338, -1.9517139289474787],
        [2.0714022399063547, 0.9983134430840934],
        [-0.3707913073010201, -0.18969939721858958],
    ]
    ITEM15_ROOTS = [
        0.7360641988988141 - 0.16201463459804985j,
        0.933421938247535 + 0.4303620321371415j,
        0.7068073523607976 + 0.6969238082344862j,
        0.7167492634227816 - 0.15180949185966627j,
        0.7035778932141131 - 0.22701062951130818j,
    ]

    @pytest.mark.parametrize("command", ["resolve", "orbit", "brioschi"])
    def test_item15_quintic_recovers_its_roots(self, command, tmp_path, capsys):
        path = tmp_path / "item15.json"
        path.write_text(json.dumps({"coefficients": self.ITEM15_COEFFS}), encoding="utf-8")
        code, payload = run_json(capsys, command, "--coeffs", str(path))
        assert code == 0
        assert payload["ok"] is True
        found = [complex(re, im) for re, im in payload["roots"]]
        for z in self.ITEM15_ROOTS:
            assert min(abs(w - z) for w in found) <= 1e-12 * abs(z)

    @staticmethod
    def _clustered_roots(seed: int) -> np.ndarray:
        """Annulus roots at scale 1e-2..1e2 with seed % 3 near-collisions
        (gaps 1e-10..1e-3 relative to the scale)."""
        rng = np.random.default_rng([25, seed])
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        roots = np.sqrt(rng.uniform(0.25, 2.25, 5)) * np.exp(2j * np.pi * rng.uniform(size=5))
        for pair in range(seed % 3):
            gap = 10.0 ** rng.uniform(-10.0, -3.0)
            roots[2 * pair + 1] = roots[2 * pair] + gap * np.exp(2j * np.pi * rng.uniform())
        return scale * roots

    def test_ill_conditioned_files_end_in_a_documented_outcome(self, tmp_path, capsys):
        bad = []
        for seed in range(100):
            coeffs = np.poly(self._clustered_roots(seed))[1:]
            find_roots(MonicPoly(tuple(coeffs)))
            path = tmp_path / f"coeffs-{seed}.json"
            path.write_text(
                json.dumps({"coefficients": [complex_to_pair(c) for c in coeffs]}),
                encoding="utf-8",
            )
            for command in ("resolve", "orbit", "brioschi"):
                code = main([command, "--coeffs", str(path), "--format", "json"])
                err = capsys.readouterr().err
                if code not in (0, 3, 4) or "root finding" in err:
                    bad.append((seed, command, code, err))
        assert bad == []


class TestOrbit:
    def test_single_instance(self, capsys):
        code, payload = run_json(capsys, "orbit", "--seed", "42")
        assert code == 0
        assert len(payload["values"]) == 12
        assert len(payload["pair_map"]) == 6
        assert len(payload["family_match"]) == 12

    def test_batch_reports_rank(self, capsys):
        code, payload = run_json(capsys, "orbit", "--seed", "1", "--n", "50")
        assert code == 0
        batch = payload["batch"]
        assert batch["orbit_counts"] == [12] * 50
        assert batch["pairing_ok"] == [True] * 50
        assert batch["rank"] == 3
        assert batch["ratio_s4_s1"] < 1e-6

    def test_degenerate_exit_3(self, tmp_path):
        path = tmp_path / "degen.json"
        path.write_text(json.dumps({"roots": [[1.0, 0.0]] * 5}), encoding="utf-8")
        assert main(["orbit", "--roots", str(path)]) == 3

    def test_batch_tolerance_counts_the_rank(self, capsys):
        # --tol is the rank tolerance of verify's rank test: between
        # sigma3/sigma1 and sigma2/sigma1 the rank counts 2 and the batch
        # fails, although sigma4/sigma1 is far below it.
        _, payload = run_json(capsys, "orbit", "--seed", "1", "--n", "50")
        s = payload["batch"]["singular_values"]
        t = (s[1] + s[2]) / 2 / s[0]
        code, payload = run_json(capsys, "orbit", "--seed", "1", "--n", "50", "--tol", repr(t))
        assert payload["batch"]["rank"] == 2
        assert payload["batch"]["ratio_s4_s1"] < t
        assert (code, payload["ok"]) == (4, False)


class TestBrioschi:
    def test_generic_instance(self, capsys):
        code, payload = run_json(capsys, "brioschi", "--seed", "42")
        assert code == 0
        assert payload["s5_value_count"] == 10
        assert payload["suppressed"]["c4_mag"] < 1e-7
        assert payload["suppressed"]["c2_mag"] < 1e-7
        assert payload["power_sums"]["p1"] < 1e-7
        assert payload["power_sums"]["p3"] < 1e-7
        assert payload["power_sums"]["p2_magnitude"] > 1e-3

    def test_degenerate_exit_3(self, tmp_path):
        path = tmp_path / "degen.json"
        path.write_text(json.dumps({"roots": [[0.5, 0.5]] * 5}), encoding="utf-8")
        assert main(["brioschi", "--roots", str(path)]) == 3

    def test_tolerance_above_1e_5_decides(self, monkeypatch, capsys):
        # One product value moved by 1e-4 of max|Phi| puts c4 and p1 near
        # 1e-4: --tol 1e-3 passes them, and the default 1e-6 fails them with
        # the report printed.  No tighter gate may pre-empt --tol.
        real = cli.phi_values

        def moved(roots, tol):
            values = real(roots, tol).values
            shift = 1e-4 * max(1.0, max(abs(v) for v in values))
            return PhiFamily((values[0] + shift, *values[1:]), 10)

        monkeypatch.setattr(cli, "phi_values", moved)
        code, payload = run_json(capsys, "brioschi", "--seed", "42", "--tol", "1e-3")
        assert 1e-5 < payload["suppressed"]["c4_mag"] < 1e-3
        assert (code, payload["ok"]) == (0, True)
        code, payload = run_json(capsys, "brioschi", "--seed", "42")
        assert (code, payload["ok"]) == (4, False)


@pytest.mark.parametrize("scale", [0.06, 0.03])
def test_flagged_tuple_exits_3_in_every_subcommand(scale, tmp_path):
    # is_degenerate flags random_instance(1, 3) at these scales.  orbit must
    # report that before any value counting, whose gates would exit 4.
    path = tmp_path / "roots.json"
    roots = [scale * z for z in random_instance(1, 3)]
    path.write_text(json.dumps({"roots": [complex_to_pair(z) for z in roots]}), encoding="utf-8")
    codes = [main([command, "--roots", str(path)]) for command in ("resolve", "orbit", "brioschi")]
    assert codes == [3, 3, 3]


def _scaled_instance_file(tmp_path, source: str, index: int, scale: float):
    """random_instance(77, index) scaled by ``scale``, as a --roots or --coeffs file."""
    roots = [scale * z for z in random_instance(77, index)]
    if source == "--roots":
        payload = {"roots": [complex_to_pair(z) for z in roots]}
    else:
        coeffs = poly_from_roots(roots).coeffs
        payload = {"coefficients": [complex_to_pair(z) for z in coeffs]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("source", ["--roots", "--coeffs"])
def test_overflow_is_a_numeric_failure_not_a_traceback(source, tmp_path, capsys):
    # At root scale 1e5, b**2 of degree12_poly leaves the double range and
    # Python raises OverflowError; main reports it in one line with exit 4.
    # (The correct outcome, exit 0, needs scale-free numerics.)
    path = _scaled_instance_file(tmp_path, source, 0, 1e5)
    assert main(["resolve", source, path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: overflow") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["--roots", "--coeffs"])
def test_brioschi_at_root_scale_1e4_passes(source, tmp_path, capsys):
    # The scalar max|Phi|**5 used to overflow here (OverflowError, exit 1);
    # the principal checks read only the scales up to max|Phi|**3.
    path = _scaled_instance_file(tmp_path, source, 15, 1e4)
    code, payload = run_json(capsys, "brioschi", source, path)
    assert code == 0
    assert payload["s5_value_count"] == 10


@pytest.mark.parametrize("source", ["--roots", "--coeffs"])
def test_brioschi_at_root_scale_0_2_counts_ten_values(source, tmp_path, capsys):
    # The product values have degree 15 and lie near 1e-9 here; an absolute
    # 1e-7 count threshold merged them into one ("found 1", exit 4).
    path = _scaled_instance_file(tmp_path, source, 0, 0.2)
    code, payload = run_json(capsys, "brioschi", source, path)
    assert code == 0
    assert payload["s5_value_count"] == 10


class TestVerify:
    def test_small_batch_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--seed", "1", "--n", "12", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert len(report["instances"]) == 12
        assert report["summary"]["ok"] is True
        assert report["rank_test"]["rank"] == 3
        assert report["meta"]["seed"] == 1
        assert "tolerances" in report["meta"]

    def test_zero_instances_exit_2(self):
        assert main(["verify", "--seed", "1", "--n", "0"]) == 2

    def test_absurd_tolerance_exit_4_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--seed", "1", "--n", "10", "--tol", "1e-30", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 4
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["summary"]["ok"] is False
        failing = report["instances"][0]["failures"]
        assert any("tolerance" in f for f in failing)

    def test_report_schema_stable_across_pass_fail(self, tmp_path, capsys):
        out_ok = tmp_path / "ok.json"
        out_bad = tmp_path / "bad.json"
        main(["verify", "--seed", "1", "--n", "10", "--out", str(out_ok)])
        main(["verify", "--seed", "1", "--n", "10", "--tol", "1e-30", "--out", str(out_bad)])
        capsys.readouterr()

        def shape(obj):
            # Keys and nesting are the schema; list lengths and leaf values
            # are content and may differ between runs.
            if isinstance(obj, dict):
                return {k: shape(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return "list"
            return "leaf"

        ok = json.loads(out_ok.read_text(encoding="utf-8"))
        bad = json.loads(out_bad.read_text(encoding="utf-8"))
        assert shape(ok["instances"][0]) == shape(bad["instances"][0])

    def test_dedup_tolerance_reaches_the_counts(self, capsys):
        # A counting threshold of 0.5 (relative) swallows the gaps between
        # distinct orbit and product values, so every count is ambiguous.
        code, report = run_json(capsys, "verify", "--seed", "3", "--n", "12", "--dedup-tol", "0.5")
        assert code == 4
        assert report["meta"]["tolerances"]["dedup"] == 0.5
        assert report["summary"]["failed"] == list(range(12))
        for record in report["instances"]:
            assert record["failures"]
            assert all("ambiguous count" in f for f in record["failures"])

    def test_determinism_modulo_wall_time(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["verify", "--seed", "3", "--n", "11", "--out", str(out1)])
        main(["verify", "--seed", "3", "--n", "11", "--out", str(out2)])
        capsys.readouterr()
        r1 = json.loads(out1.read_text(encoding="utf-8"))
        r2 = json.loads(out2.read_text(encoding="utf-8"))
        r1["meta"].pop("wall_time_s")
        r2["meta"].pop("wall_time_s")
        assert r1 == r2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quinticlab", "orbit", "--seed", "2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["values"]) == 12


def test_text_format_renders(capsys):
    code = main(["brioschi", "--seed", "42", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "phi_values" in out
    assert "p2_magnitude" in out
