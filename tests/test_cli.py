import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ultrasph

from ultrasph.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_SKIP,
    ConfigError,
    emit_report,
    load_config,
    main,
    parse_config_text,
    select_characters,
)
from ultrasph.harmonics import zonal_piece_bytes
from ultrasph.matgroup import BudgetExceededError, SubgroupSpec, subgroup_generators
from ultrasph.ring import characters, make_ring_level
from ultrasph.sphere import BASIS_BYTES_MAX
from ultrasph.verify import CheckRecord



def run_under_memory_limit(tmp_path, command, p, n, level, limit=2 << 30, extra=(), chars=None,
                           branch="padic", f=1, timeout=120):
    """Run one command on the ring (branch, p, f, level) in a child with
    ``limit`` bytes of address space, ``extra`` appended to its arguments and
    an optional ``[pseries] chars`` selector; return the finished process
    and its records.  subprocess.TimeoutExpired after ``timeout`` seconds."""
    cfg = tmp_path / "c.txt"
    text = f"[ring]\nbranch = {branch}\np = {p}\nf = {f}\n\n[run]\nn = {n}\nlevel = {level}\n"
    if chars is not None:
        text += f"\n[pseries]\nchars = {chars}\n"
    cfg.write_text(text)
    out = tmp_path / "d.jsonl"

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(ultrasph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ultrasph.cli", command, "--config", str(cfg),
         "--out", str(out), *extra],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=cap_address_space,
    )
    records = [json.loads(line) for line in out.read_text().splitlines()] if out.exists() else []
    return proc, records


class TestConfigParsing:
    def test_sections_and_values(self, tmp_path):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text(
            "[ring]\nbranch = padic\np = 3\nf = 1\n\n"
            "[run]\nn = 2\nlevel = 2\nsamples = 50\nseed = 9\n"
        )
        cfg = load_config(str(cfg_file))
        assert (cfg.branch, cfg.p, cfg.level, cfg.samples, cfg.seed) == ("padic", 3, 2, 50, 9)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("[ring]\nprime = 2\n")

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("[rings]\np = 2\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("p = 2\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[run]\nlevel = two\n")

    def test_comments_and_blank_lines(self):
        data = parse_config_text("# comment\n[run]\n\nlevel = 3  # inline\n")
        assert data["run"]["level"] == 3

    def test_poly_list(self):
        data = parse_config_text("[ring]\npoly = 1,1,1\n")
        assert data["ring"]["poly"] == [1, 1, 1]

    def test_invalid_budget(self, tmp_path):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text("[run]\nbudget = 0\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg_file))

    def test_level_zero_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text("[run]\nlevel = 0\n")
        assert main(["decompose", "--config", str(cfg_file)]) == EXIT_CONFIG

    @pytest.mark.parametrize("lines", [
        # no tuple of conductor sum at most -1: zero records, exit 0
        "sum_max = -1",
        # `level = 0` with chars ran at [run] level, and without them failed
        "level = 0\nchars = 1:0,0:0", "level = 0",
    ])
    def test_pseries_bounds_that_check_nothing_are_config_errors(self, tmp_path, lines, capsys):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text(f"[ring]\np = 3\n\n[run]\nsamples = 20\n\n[pseries]\n{lines}\n")
        out = tmp_path / "ps.jsonl"
        assert main(["principal-series", "--config", str(cfg_file), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists() and capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "line", ["real_nmax = 1", "complex_nmax = 1", "real_degree = -1", "complex_degree = -1"]
    )
    def test_arch_bounds_that_check_nothing_are_config_errors(self, tmp_path, line, capsys):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text(f"[arch]\n{line}\n")
        assert main(["arch-verify", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_overrides(self, tmp_path):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text("[run]\nseed = 1\n")
        cfg = load_config(str(cfg_file), overrides={"seed": 5, "samples": None})
        assert cfg.seed == 5 and cfg.samples == 200


class TestCharacterSelectors:
    def test_by_conductor_and_index(self):
        ring = make_ring_level("padic", 2, 1, 3)
        got = select_characters(ring, "0:0,3:1", 2)
        assert [c.c for c in got] == [0, 3]
        assert got[1] == [c for c in characters(ring) if c.c == 3][1]

    def test_default_index(self):
        ring = make_ring_level("padic", 2, 1, 3)
        got = select_characters(ring, "2,0", 2)
        assert [c.c for c in got] == [2, 0]

    def test_missing_conductor(self):
        ring = make_ring_level("padic", 2, 1, 2)
        with pytest.raises(ConfigError):
            select_characters(ring, "1:0,0:0", 2)

    def test_wrong_count(self):
        ring = make_ring_level("padic", 2, 1, 2)
        with pytest.raises(ConfigError):
            select_characters(ring, "0:0", 2)


class TestMain:
    def test_decompose_pass(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        code = main(["decompose", "--out", str(out)])
        assert code == EXIT_PASS
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records and all(r["status"] == "PASS" for r in records)
        assert all("formula" in r and "check_id" in r for r in records)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("[ring]\nbranchh = padic\n")
        assert main(["decompose", "--config", str(bad)]) == EXIT_CONFIG

    def test_missing_config_file(self):
        assert main(["decompose", "--config", "/nonexistent/path.txt"]) == EXIT_CONFIG

    def test_arch_verify(self, tmp_path):
        out = tmp_path / "arch.jsonl"
        code = main(["arch-verify", "--out", str(out)])
        assert code == EXIT_PASS

    def test_arch_verify_m10_n6_returns_inside_its_deadline(self, tmp_path):
        # real m <= 10, n <= 6 / complex m1 + m2 <= 8, n <= 4: the exact
        # kernel dimensions of the largest blocks, through the CLI in a child
        cfg = tmp_path / "a.txt"
        cfg.write_text(
            "[arch]\nreal_degree = 10\nreal_nmax = 6\ncomplex_degree = 8\ncomplex_nmax = 4\n"
        )
        out = tmp_path / "a.jsonl"
        src = str(Path(ultrasph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ultrasph.cli", "arch-verify", "--config", str(cfg),
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("arch-verify at real m <= 10, n <= 6 took over 30 s")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_PASS
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["status"] for r in records] == ["PASS"] * 381

    def test_double_cosets(self, tmp_path):
        out = tmp_path / "dc.jsonl"
        assert main(["double-cosets", "--out", str(out)]) == EXIT_PASS

    def test_principal_series_with_selector(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "[ring]\nbranch = padic\np = 2\nf = 1\n\n"
            "[run]\nn = 2\nlevel = 2\nsamples = 40\n\n"
            "[pseries]\nchars = 2:0,0:0\n"
        )
        out = tmp_path / "ps.jsonl"
        code = main(["principal-series", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_PASS
        records = [json.loads(line) for line in out.read_text().splitlines()]
        conductor = [r for r in records if r["check_id"].endswith("/conductor")]
        assert conductor and conductor[0]["observed"] == "2"

    def test_a_newform_beyond_the_level_skips_from_the_model_checks(self, tmp_path):
        # conductor sum 2 over level 1: pseries_model_checks records the SKIP
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "[ring]\nbranch = padic\np = 3\nf = 1\n\n"
            "[run]\nn = 2\nlevel = 1\nsamples = 20\n\n"
            "[pseries]\nchars = 1:0,1:0\n"
        )
        out = tmp_path / "ps.jsonl"
        assert main(["principal-series", "--config", str(cfg), "--out", str(out)]) == EXIT_SKIP
        records = [json.loads(line) for line in out.read_text().splitlines()]
        skips = [(r["check_id"], r["status"]) for r in records if r["status"] != "PASS"]
        assert skips == [("pseries-q3-n2-M1/c1e1-c1e1/newform", "SKIP")]

    def test_zonal_subcommand(self, tmp_path):
        out = tmp_path / "z.jsonl"
        assert main(["zonal", "--samples", "60", "--out", str(out)]) == EXIT_PASS

    def test_determinism_modulo_walltime(self, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["zonal", "--seed", "3", "--samples", "40", "--out", str(out1)])
        main(["zonal", "--seed", "3", "--samples", "40", "--out", str(out2)])

        def strip(path):
            rows = []
            for line in path.read_text().splitlines():
                d = json.loads(line)
                d.pop("seconds")
                rows.append(json.dumps(d, sort_keys=True))
            return rows

        assert strip(out1) == strip(out2)

    def test_records_sorted_by_check_id(self, tmp_path):
        out = tmp_path / "rep.jsonl"
        main(["decompose", "--out", str(out)])
        ids = [json.loads(line)["check_id"] for line in out.read_text().splitlines()]
        assert ids == sorted(ids)

    def test_skip_without_fail_exit_code(self, tmp_path):
        # a tiny budget forces the exhaustive double-coset check to be
        # reported as skipped, never silently passed
        out = tmp_path / "dc.jsonl"
        code = main(["double-cosets", "--budget", "2", "--out", str(out)])
        assert code == EXIT_SKIP
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(r["status"] == "SKIP" for r in records)
        assert not any(r["status"] == "FAIL" for r in records)


    def test_oversized_ring_is_config_error(self, tmp_path):
        # 4099 > 4096 elements: refused before the arithmetic tables exist
        cfg = tmp_path / "c.txt"
        cfg.write_text("[ring]\np = 4099\n\n[run]\nlevel = 1\n")
        assert main(["double-cosets", "--config", str(cfg)]) == EXIT_CONFIG

    def test_coset_budget_overrun_is_skip(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "[ring]\nbranch = padic\np = 11\nf = 1\n\n"
            "[run]\nn = 3\nlevel = 2\n\n"
            "[pseries]\nchars = 0,0,0\n"
        )
        out = tmp_path / "ps.jsonl"
        code = main(["principal-series", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_SKIP
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["status"] for r in records] == ["SKIP"]
        assert "exceed budget" in records[0]["observed"]

    def test_principal_series_q5_n3_m2_passes(self, tmp_path):
        # 23,250 flag cosets: the exact orbit invariants need O(dim) memory,
        # where one dense dim x dim action matrix would take 8.6 GB
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "[ring]\nbranch = padic\np = 5\nf = 1\n\n"
            "[run]\nn = 3\nlevel = 2\nsamples = 20\n\n"
            "[pseries]\nchars = 0,0,0\n"
        )
        out = tmp_path / "ps.jsonl"
        code = main(["principal-series", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_PASS
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 7 and all(r["status"] == "PASS" for r in records)

    def test_principal_series_order_four_characters_pass(self, tmp_path):
        # chi and chi^-1 of order 4 and conductor 1 at level 2: the newform
        # lives on closing orbits whose phases have order 4, so a phase
        # cocycle propagated with the wrong sign fails these records
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "[ring]\nbranch = padic\np = 5\nf = 1\n\n"
            "[run]\nn = 2\nlevel = 2\n\n"
            "[pseries]\nchars = 1:0,1:2\n"
        )
        ring = make_ring_level("padic", 5, 1, 2)
        chosen = select_characters(ring, "1:0,1:2", 2)
        assert [ch.exps for ch in chosen] == [(1, 0), (3, 0)]
        out = tmp_path / "ps.jsonl"
        code = main(["principal-series", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_PASS
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 7 and all(r["status"] == "PASS" for r in records)

    def test_decompose_q2_n4_m2_certifies_irreducibility(self, tmp_path):
        # a 240-point sphere; |K| = 2^16 * 20160 is far past any enumeration
        # budget, and K's stabiliser chain certifies the measure lemma instead
        cfg = tmp_path / "c.txt"
        cfg.write_text("[ring]\nbranch = padic\np = 2\n\n[run]\nn = 4\nlevel = 2\n")
        out = tmp_path / "d.jsonl"
        assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        records = [json.loads(line) for line in out.read_text().splitlines()]
        skipped = [r["check_id"] for r in records if r["status"] != "PASS"]
        assert skipped == []
        commutants = [r for r in records if "/commutant/" in r["check_id"]]
        assert len(commutants) == 4 and all(r["observed"] == "1" for r in commutants)

    def test_decompose_under_a_tiny_orbital_cap_certifies_irreducibility(
        self, tmp_path, monkeypatch
    ):
        import ultrasph.sphere
        from ultrasph.harmonics import SphereSpace

        # the 12-point sphere's label array needs 12 * 12 * 8 = 1152 bytes:
        # over the cap the labels are refused, and the irreducibility count,
        # which never builds them, still certifies every piece
        monkeypatch.setattr(ultrasph.sphere, "ORBITAL_BYTES_MAX", 1000)
        ring = make_ring_level("padic", 2, 1, 2)
        with pytest.raises(BudgetExceededError, match="over the cap 1000"):
            SphereSpace(ring, 2).index.orbital_labels(
                subgroup_generators(SubgroupSpec("K"), ring, 2)
            )
        out = tmp_path / "d.jsonl"
        assert main(["decompose", "--out", str(out)]) == EXIT_PASS
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["status"] == "PASS" for r in records)
        assert not any(r["check_id"] == "decompose/budget" for r in records)
        commutants = [r for r in records if "/commutant/" in r["check_id"]]
        assert len(commutants) == 4 and all(r["observed"] == "1" for r in commutants)

    def test_decompose_q7_n2_m2_certifies_irreducibility_under_a_memory_limit(self, tmp_path):
        # |S| = 2,352: the orbital label array (44 MB) is over its cap, and
        # the mirabolic orbit count needs one |S|-vector per generator
        proc, records = run_under_memory_limit(
            tmp_path, "decompose", p=7, n=2, level=2, limit=3_000_000_000
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_PASS
        commutants = [r for r in records if "/commutant" in r["check_id"]]
        assert len(commutants) == 91
        assert all(r["status"] == "PASS" for r in commutants)

    def test_decompose_q5_n2_m3_fails_closed_under_a_memory_limit(self, tmp_path):
        # |S| = 15,000: dense piece bases would need 3.6 GB, but the pieces
        # are labels and their certificates exact, so in a child with 2 GiB
        # of address space the suite emits every record
        proc, records = run_under_memory_limit(tmp_path, "decompose", p=5, n=2, level=3)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_PASS
        assert len(records) == 755 and all(r["status"] == "PASS" for r in records)
        commutants = [r for r in records if "/commutant/" in r["check_id"]]
        assert len(commutants) == 125 and all(r["observed"] == "1" for r in commutants)

    def test_decompose_q7_n3_m2_certifies_irreducibility_under_a_memory_limit(self, tmp_path):
        # |S| = 117,306: the scalar orbits come without a stack of the units'
        # permutations, and no dense row is built
        proc, records = run_under_memory_limit(tmp_path, "decompose", p=7, n=3, level=2)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_PASS
        assert len(records) == 271 and all(r["status"] == "PASS" for r in records)

    def test_decompose_q2_n2_m12_fails_closed_under_a_memory_limit(self, tmp_path):
        # |S| = 12,582,912 at 320 bytes a point is 4.0 GB, so the suite
        # refuses before it builds the sphere
        proc, records = run_under_memory_limit(tmp_path, "decompose", p=2, n=2, level=12)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_SKIP
        assert [(r["check_id"], r["status"]) for r in records] == [("decompose/budget", "SKIP")]
        assert "over the cap" in records[0]["observed"]

    def test_zonal_q7_n3_m2_fails_closed_under_a_memory_limit(self, tmp_path):
        # |S| = 117,306: the largest piece alone has 2,793 dense rows, 5.2 GB.
        proc, records = run_under_memory_limit(tmp_path, "zonal", p=7, n=3, level=2)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_SKIP
        assert [(r["check_id"], r["status"]) for r in records] == [("zonal/budget", "SKIP")]
        assert "over the cap" in records[0]["observed"]

    def test_double_cosets_q2_n3_m2_returns_under_a_memory_limit(self, tmp_path):
        # |K| = 86,016 is inside the default budget: the witnesses and the
        # sphere-orbit oracle must finish well inside the child's timeout
        proc, records = run_under_memory_limit(tmp_path, "double-cosets", 2, 3, 2)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_PASS
        assert [r["status"] for r in records] == ["PASS"] * 3
        assert {r["check_id"].split("/")[-1] for r in records} == {
            "witness-remultiplication", "class-count", "brute-force-partition",
        }

    def test_double_cosets_over_the_closure_budget_fail_closed_under_a_memory_limit(self, tmp_path):
        # |K| = 4,838,400 at (q7, n2, m2) is admitted by --budget, but K and
        # its witnesses are priced at about 2.5 GB: the suite refuses before
        # it builds K, in a child with 3,000,000 KiB
        proc, records = run_under_memory_limit(
            tmp_path, "double-cosets", 7, 2, 2, limit=3_000_000 * 1024,
            extra=("--budget", "5000000"),
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_SKIP
        assert [(r["check_id"], r["status"]) for r in records] == [("double-cosets/budget", "SKIP")]
        assert "over the cap" in records[0]["observed"]

    def test_double_coset_bytes_admit_the_grid(self):
        # the suite prices K and its witnesses as a sampled stack of |K|
        from ultrasph.matgroup import group_order
        from ultrasph.verify import DOUBLE_COSET_POINTS, _check_sample_bytes

        for branch, p, f, m, n in DOUBLE_COSET_POINTS:
            _check_sample_bytes(n, group_order(make_ring_level(branch, p, f, m), n))

    def test_principal_series_q5_n3_m2_returns_inside_its_deadline(self, tmp_path):
        # 23,250 flag cosets with one ramified slot, in a child with
        # 3,000,000 KiB of address space: all 7 records within 30 s
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "[ring]\nbranch = padic\np = 5\n\n[run]\nn = 3\nlevel = 2\n\n"
            "[pseries]\nchars = 1:0,0:0,0:0\n"
        )
        out = tmp_path / "ps.jsonl"
        limit = 3_000_000 * 1024

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(ultrasph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ultrasph.cli", "principal-series", "--config", str(cfg),
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=30,
                preexec_fn=cap_address_space,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("principal-series at (q5, n3, M2) took over 30 s")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_PASS
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["status"] for r in records] == ["PASS"] * 7

    def test_verify_all_seed_0_records_match_the_committed_file(self, tmp_path):
        # every record but its timing, byte for byte, against the file
        # written at seed 0 with the CLI defaults
        out = tmp_path / "all.jsonl"
        assert main(["verify-all", "--seed", "0", "--out", str(out)]) == EXIT_PASS
        got = []
        for line in out.read_text().splitlines():
            record = json.loads(line)
            del record["seconds"]
            got.append(json.dumps(record, sort_keys=True))
        want = (Path(__file__).parent / "data" / "verify_all_seed0.jsonl").read_text().splitlines()
        assert len(got) == len(want) == 893
        assert [a for a, b in zip(got, want) if a != b] == []

    @pytest.mark.parametrize("command, chars, skip_id", [
        ("zonal", None, "zonal/budget"),
        ("principal-series", None, "/budget"),
        ("principal-series", "1:0,0:0", "pseries/budget"),
        ("verify-all", None, "/zonal-budget"),
    ])
    def test_huge_samples_fail_closed_under_a_memory_limit(self, tmp_path, command, chars, skip_id):
        # 10^8 sampled (2, 2) stacks are 3.2 GB on their own: each command
        # must refuse before drawing, in a child with 3,000,000 KiB of
        # address space, where the draw used to end in a MemoryError
        proc, records = run_under_memory_limit(
            tmp_path, command, p=3, n=2, level=2, limit=3_000_000 * 1024,
            extra=("--samples", "100000000"), chars=chars,
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_SKIP
        skips = [r for r in records if r["status"] == "SKIP"]
        assert any(r["check_id"].endswith(skip_id) for r in skips)
        assert all(r["check_id"].endswith("budget") for r in skips)
        assert all("over the cap" in r["observed"] for r in skips)
        assert not any(r["status"] == "FAIL" for r in records)

    def test_zonal_budget_counts_the_whole_sphere_before_drawing(self, tmp_path, monkeypatch):
        # at q2 n2 m2 the pieces draw s, s/2, s/3 and s/6 ks: the largest
        # stack fits under the cap, the sphere's 2 s do not
        import ultrasph.verify

        def refuse(*args, **kwargs):
            raise AssertionError("random_stack called")

        monkeypatch.setattr(ultrasph.verify, "random_stack", refuse)
        samples = 1_999_998  # divisible by 6
        ultrasph.verify._check_sample_bytes(2, samples)
        cfg = tmp_path / "c.txt"
        cfg.write_text("[ring]\nbranch = padic\np = 2\n\n[run]\nn = 2\nlevel = 2\n")
        out = tmp_path / "z.jsonl"
        code = main(["zonal", "--config", str(cfg), "--samples", str(samples), "--out", str(out)])
        assert code == EXIT_SKIP
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["check_id"], r["status"]) for r in records] == [("zonal/budget", "SKIP")]
        # the drawn 2 s and the exhaustive K stack of order 96
        assert records[0]["observed"].startswith(f"{2 * samples + 96} sampled elements")

    def test_n_below_2_is_a_config_error_before_any_budget(self, tmp_path):
        # refused as a config error, not read as a budget SKIP of the huge draw
        cfg = tmp_path / "c.txt"
        cfg.write_text("[ring]\nbranch = padic\np = 2\n\n[run]\nn = 1\nlevel = 1\n")
        for command in ("zonal", "decompose"):
            args = [command, "--config", str(cfg), "--samples", "100000000"]
            assert main([*args, "--out", str(tmp_path / "o.jsonl")]) == EXIT_CONFIG

    def test_sample_budget_is_checked_before_any_model_is_built(self, tmp_path, monkeypatch):
        import ultrasph.pseries
        import ultrasph.verify

        def refuse(*args, **kwargs):
            raise AssertionError("PSeriesModel built")

        monkeypatch.setattr(ultrasph.pseries, "PSeriesModel", refuse)
        monkeypatch.setattr(ultrasph.verify, "PSeriesModel", refuse)
        for chars in ("1:0,0:0,0:0", None):
            cfg = tmp_path / "c.txt"
            text = "[ring]\nbranch = padic\np = 5\n\n[run]\nn = 3\nlevel = 2\n"
            cfg.write_text(text + (f"\n[pseries]\nchars = {chars}\n" if chars else ""))
            out = tmp_path / "ps.jsonl"
            code = main(["principal-series", "--config", str(cfg), "--samples", "100000000",
                         "--out", str(out)])
            assert code == EXIT_SKIP
            records = [json.loads(line) for line in out.read_text().splitlines()]
            assert records and all(r["status"] == "SKIP" for r in records)
            if chars:
                assert [r["check_id"] for r in records] == ["pseries/budget"]
            assert all(r["check_id"].endswith("/budget") for r in records)

    def test_arch_verify_over_its_budget_fails_closed_under_a_memory_limit(self, tmp_path):
        # degree 40 in 20 variables is 10^15 monomials: the suite refuses
        # before it builds one, in a child with 3,000,000 KiB of address space
        cfg = tmp_path / "a.txt"
        cfg.write_text("[arch]\nreal_degree = 40\nreal_nmax = 20\n")
        out = tmp_path / "a.jsonl"
        limit = 3_000_000 * 1024

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(ultrasph.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ultrasph.cli", "arch-verify", "--config", str(cfg),
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, preexec_fn=cap_address_space,
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == EXIT_SKIP
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["check_id"], r["status"]) for r in records] == [("arch/budget", "SKIP")]
        assert "over the cap" in records[0]["observed"]

    def test_arch_budget_admits_the_m14_point(self):
        from ultrasph.verify import arch_bytes

        assert arch_bytes((14, 8), (10, 5)) < BASIS_BYTES_MAX < arch_bytes((40, 20), (5, 3))
        assert arch_bytes((6, 4), (10**9, 10**9)) > BASIS_BYTES_MAX

    def test_suites_leave_numpy_ma_unimported(self):
        # numpy.ma costs 11-19 ms to import; a plain np.unique pulls it in
        code = (
            "import sys\n"
            "from ultrasph import verify\n"
            "from ultrasph.ring import make_ring_level\n"
            "ring = make_ring_level('padic', 2, 1, 2)\n"
            "verify.double_coset_suite(ring, 2)\n"
            "verify.zonal_suite(ring, 2)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        src = str(Path(ultrasph.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_zonal_budget_admits_the_q5_n2_m3_sphere(self):
        # |S| = 15,000 with 150-row pieces: the zonal suite runs there
        assert zonal_piece_bytes(5, 2, 3) < BASIS_BYTES_MAX < zonal_piece_bytes(7, 3, 2)

    def test_no_command_makes_a_rank_decision(self, tmp_path, monkeypatch):
        import ultrasph.numerics

        # no pivot gap can reach 1e300, and every rank routine raises, under
        # whatever name a module bound it: the pieces, irreducibility and
        # multiplicity one are all exact
        monkeypatch.setattr(ultrasph.numerics, "GAP_MIN", 1e300)
        for name in ("orthonormalize_rows", "kernel_basis", "kernel_dimension"):
            orig = getattr(ultrasph.numerics, name)

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called")

            for mod in [m for key, m in sys.modules.items() if key.startswith("ultrasph")]:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, attr, refuse)
        for command in ("decompose", "zonal"):
            out = tmp_path / f"{command}.jsonl"
            assert main([command, "--out", str(out)]) == EXIT_PASS
            records = [json.loads(line) for line in out.read_text().splitlines()]
            assert records and all(r["status"] == "PASS" for r in records)


class TestCommandSweep:
    @given(
        command=st.sampled_from(["zonal", "decompose"]),
        branch=st.sampled_from(["padic", "laurent"]),
        p=st.integers(2, 5),
        f=st.integers(1, 2),
        level=st.integers(0, 3),
        n=st.integers(1, 3),
        samples=st.one_of(st.integers(-1, 300), st.just(10**8)),
        budget=st.sampled_from([0, 1, 200000]),
    )
    @settings(max_examples=20, deadline=None)
    def test_small_configs_exit_cleanly(self, command, branch, p, f, level, n, samples, budget):
        # each run in its own child under a 2 GiB address space and a 20 s
        # deadline: it passes, fails, skips on a budget, or is refused as a
        # config error, and never ends in a traceback
        assume((p**f) ** (level * n) <= 4096)
        valid = (
            level >= 1 and n >= 2 and samples > 0 and budget > 0 and p in (2, 3, 5)
            and (branch == "laurent" or f == 1)
        )
        with tempfile.TemporaryDirectory() as tmp:
            proc, records = run_under_memory_limit(
                Path(tmp), command, p=p, n=n, level=level, branch=branch, f=f, timeout=20,
                extra=("--samples", str(samples), "--budget", str(budget)),
            )
        assert "Traceback" not in proc.stderr
        assert proc.returncode in (EXIT_PASS, EXIT_FAIL, EXIT_SKIP, EXIT_CONFIG)
        assert (proc.returncode == EXIT_CONFIG) == (not valid), proc.stderr
        assert valid == bool(records)


class TestDecomposePricesItsCertificate:
    def test_a_chain_over_its_cap_skips_before_the_pieces(self, monkeypatch):
        # with CHAIN_BYTES_MAX one byte below what K's certificate is
        # charged, decompose is refused before any level's labels are built
        from ultrasph import matgroup, verify

        ring, n = make_ring_level("padic", 3, 1, 2), 3
        need = matgroup.k_certificate_bytes(ring.q, n, ring.m)
        monkeypatch.setattr(matgroup, "CHAIN_BYTES_MAX", need - 1)

        def refuse(*args, **kwargs):
            raise AssertionError("labels were built")

        monkeypatch.setattr(verify, "Labels", refuse)
        with pytest.raises(BudgetExceededError, match=f"stabiliser chain of K needs up to {need} bytes"):
            verify.decompose_suite(ring, n)

    def test_decompose_at_q2_n2_m10_passes_inside_its_deadline(self, tmp_path):
        # 8,197 records from one set of labels per level: one per character
        # and level took minutes here
        proc, records = run_under_memory_limit(
            tmp_path, "decompose", p=2, n=2, level=10, limit=3_000_000 * 1024, timeout=30,
        )
        assert proc.returncode == EXIT_PASS, proc.stderr
        assert len(records) == 8197 and all(r["status"] == "PASS" for r in records)

    @pytest.mark.parametrize("command", ["decompose", "zonal"])
    def test_a_suite_over_its_budget_skips_before_the_ring_is_built(self, tmp_path, command):
        # padic (q2, n2, m12): the ring's add and mul tables alone take
        # 268 MB, so the SKIP, predicted from (q, n, level), comes first
        cfg = tmp_path / "c.txt"
        cfg.write_text("[ring]\nbranch = padic\np = 2\nf = 1\n\n[run]\nn = 2\nlevel = 12\n")
        out, err = tmp_path / "d.jsonl", tmp_path / "err.txt"
        limit = 3_000_000 * 1024

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(ultrasph.__file__).resolve().parents[1])
        with open(err, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ultrasph.cli", command, "--config", str(cfg),
                 "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                stdout=subprocess.DEVNULL, stderr=stderr, preexec_fn=cap_address_space,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        assert "Traceback" not in err.read_text()
        assert os.waitstatus_to_exitcode(status) == EXIT_SKIP
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["check_id"], r["status"]) for r in records] == [(f"{command}/budget", "SKIP")]
        assert usage.ru_maxrss < 100 * 1024  # KiB


class TestEmitReport:
    def _rec(self, status):
        return CheckRecord("x/check", "law", {}, "1", "2" if status == "FAIL" else "1",
                           None, status, 0.0)

    def test_fail_dominates(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code = emit_report([self._rec("PASS"), self._rec("FAIL"), self._rec("SKIP")],
                           out_path=str(out))
        assert code == EXIT_FAIL

    def test_skip_without_fail(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert emit_report([self._rec("PASS"), self._rec("SKIP")], out_path=str(out)) == EXIT_SKIP

    def test_all_pass(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert emit_report([self._rec("PASS")], out_path=str(out)) == EXIT_PASS
