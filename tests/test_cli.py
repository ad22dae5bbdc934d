import numpy as np
import pytest

from dswlab.cli import THETA_TABLE_DEFAULT_PAIRS, main


def read_csv(path):
    header, cols, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append(line.split(","))
    return header, cols, rows


def header_value(header, key):
    for line in header:
        for tok in line.replace("# ", "").split():
            if tok.startswith(key + "="):
                return tok.split("=", 1)[1]
    raise KeyError(key)


class TestWaveCommand:
    def test_header_carries_speed(self, tmp_path):
        out = tmp_path / "wave.csv"
        assert main(["wave", "--L", "2", "--kappa", "0.1", "--out", str(out)]) == 0
        header, cols, rows = read_csv(out)
        assert float(header_value(header, "c")) == pytest.approx(9.87007, rel=5e-6)
        assert cols == ["xi", "psi", "phi"]
        assert len(rows) == 256
        assert float(header_value(header, "residual_ode")) < 1e-8

    def test_speed_route_matches_modulus_route(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["wave", "--L", "2", "--kappa", "0.1", "--out", str(a)])
        main(["wave", "--L", "2", "--c", "9.870071698075456", "--out", str(b)])
        ra = np.array(read_csv(a)[2], dtype=float)
        rb = np.array(read_csv(b)[2], dtype=float)
        assert np.max(np.abs(ra - rb)) < 1e-9

    def test_invalid_modulus_exits_nonzero(self, capsys):
        assert main(["wave", "--L", "2", "--kappa", "1.5"]) == 2
        assert "modulus" in capsys.readouterr().err

    def test_below_threshold_speed_reported(self, capsys):
        assert main(["wave", "--L", "2", "--c", "1.0"]) == 2
        assert "4 pi^2" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["wave", "--L", "2", "--kappa", "0.33", "--out", str(a)])
        main(["wave", "--L", "2", "--kappa", "0.33", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestThetaTable:
    def test_default_reproduces_printed_rows(self, tmp_path):
        out = tmp_path / "theta.csv"
        assert main(["theta-table", "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols == ["L", "kappa", "c", "p_prime_0", "q_prime_L", "theta",
                        "n_minus", "n_zero"]
        assert len(rows) == len(THETA_TABLE_DEFAULT_PAIRS) == 15

    def test_single_pair_row(self, tmp_path):
        out = tmp_path / "one.csv"
        main(["theta-table", "--pairs", "2:0.1", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(["L", "kappa", "c", "p_prime_0", "q_prime_L", "theta",
                        "n_minus", "n_zero"], rows[0]))
        assert float(row["theta"]) == pytest.approx(0.00130764, rel=5e-4)
        assert (int(row["n_minus"]), int(row["n_zero"])) == (1, 1)

    def test_last_printed_label_follows_scaling_law(self, tmp_path):
        # at the printed label (50, 0.1) the true theta is 25x the (2, 0.1)
        # value; the printed table cell belongs to kappa = 0.2 (NOTES.md)
        out = tmp_path / "fifty.csv"
        main(["theta-table", "--pairs", "50:0.1,50:0.2", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert float(rows[0][5]) == pytest.approx(25 * 0.00130764, rel=5e-4)
        assert float(rows[1][5]) == pytest.approx(0.564921, rel=5e-4)

    def test_empty_pair_list(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["theta-table", "--pairs", "", "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols is not None and rows == []

    def test_invalid_tolerance_fails_the_rows(self, tmp_path):
        out = tmp_path / "bad.csv"
        assert main(["theta-table", "--pairs", "2:0.1", "--tol", "1e-3", "--out", str(out)]) == 1
        header, _, rows = read_csv(out)
        assert rows == []
        assert "row (2.0, 0.1) failed: tol must lie in" in "\n".join(header)


class TestDMatrixSweep:
    def test_single_point(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.5",
                     "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(cols, rows[0]))
        assert float(row["det"]) < 0
        assert row["status"] == "ok"
        assert int(row["k_ham"]) == 1
        assert float(row["A2"]) < 0

    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["dmatrix-sweep", "--L", "1", "--kappa-min", "0.2", "--kappa-max", "0.8",
              "--kappa-step", "0.2", "--out", str(out)])
        _, cols, rows = read_csv(out)
        assert len(rows) == 4
        for r in rows:
            row = dict(zip(cols, r))
            assert float(row["det"]) < 0
            assert int(row["n_D"]) == 1
            assert float(row["A2"]) < 0

    def test_quadratures_computed_once_per_row(self, tmp_path, monkeypatch):
        from dswlab import index_engine

        calls = []
        a_integrals = index_engine.a_integrals
        monkeypatch.setattr(index_engine, "a_integrals",
                            lambda *a, **k: calls.append(a) or a_integrals(*a, **k))
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.3,0.6",
                     "--out", str(out)]) == 0
        assert len(calls) == 2

    def test_degenerate_row_keeps_its_quadratures(self, tmp_path, monkeypatch):
        from dswlab import index_engine, params_from_kappa

        def degenerate(p):
            raise index_engine.DegenerateDMatrixError("det D = 0")

        monkeypatch.setattr(index_engine, "assemble_dmatrix", degenerate)
        out = tmp_path / "d.csv"
        assert main(["dmatrix-sweep", "--L", "1", "--kappas", "0.5",
                     "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        row = dict(zip(cols, rows[0]))
        assert row["status"] == "degenerate"
        assert (row["n_D"], row["k_ham"], row["det"]) == ("-1", "-1", "nan")
        A = index_engine.a_integrals(params_from_kappa(1.0, 0.5))
        assert [row[f"A{i}"] for i in range(1, 7)] == [repr(float(a)) for a in A]


class TestSpectrum:
    def test_summary_counts(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", "256",
                     "--out", str(out)]) == 0
        header, cols, rows = read_csv(out)
        text = "\n".join(header)
        # the reference material claims k_r = 1 here; the computed spectrum is
        # purely imaginary (NOTES.md), and the header reports both identity checks
        assert "k_r=0" in text
        assert "count_identity_vs_measured_nH=True" in text
        assert "count_identity_vs_formula=False" in text  # the 2-n(D) formula count disagrees
        sym = [float(dict(zip(cols, r))["symmetry_residual"]) for r in rows]
        assert max(sym) < 1e-7

    def test_eigensolve_failure_exits_with_its_message(self, tmp_path, monkeypatch, capsys):
        from dswlab import spectra

        def fail(p, N):
            raise spectra.EigensolveError("zero cluster not separated")

        monkeypatch.setattr(spectra, "unstable_modes", fail)
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--out", str(out)]) == 1
        assert "spectrum failed: zero cluster not separated" in capsys.readouterr().err
        assert not out.exists()

    def test_odd_grid_is_refused(self, tmp_path, capsys):
        out = tmp_path / "odd.csv"
        assert main(["spectrum", "--L", "2", "--kappa", "0.3", "--N", "255",
                     "--out", str(out)]) == 2
        assert "N must be even (got 255)" in capsys.readouterr().err
        assert not out.exists()

    def test_other_errors_are_not_swallowed(self, tmp_path, monkeypatch):
        from dswlab import spectra

        def fail(p, N):
            raise RuntimeError("a bug, not an eigensolve failure")

        monkeypatch.setattr(spectra, "unstable_modes", fail)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["spectrum", "--L", "2", "--kappa", "0.3", "--out", str(tmp_path / "s.csv")])


class TestSimulate:
    def test_zero_initial_data(self, tmp_path):
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--zero", "--N", "64", "--T", "0.2", "--dt", "1e-3",
                     "--out-prefix", prefix]) == 0
        _, cols, rows = read_csv(tmp_path / "run_conservation.csv")
        assert cols == ["t", "m_u", "m_v", "e_mixed", "l2"]
        vals = np.array(rows, dtype=float)
        assert np.all(vals[:, 1:] == 0.0)
        _, tcols, trows = read_csv(tmp_path / "run_trajectory.csv")
        assert tcols == ["t", "x", "u", "v"]

    def test_header_reports_step_actually_used(self, tmp_path):
        # T/dt = 12.5: the run takes 13 steps of T/13 and ends at T
        prefix = str(tmp_path / "z")
        assert main(["simulate", "--zero", "--N", "32", "--T", "0.05", "--dt", "4e-3",
                     "--out-prefix", prefix]) == 0
        header, _, rows = read_csv(tmp_path / "z_conservation.csv")
        assert float(header_value(header, "dt_used")) == 0.05 / 13
        assert float(rows[-1][0]) == 0.05
        assert main(["simulate", "--zero", "--N", "32", "--T", "0.05", "--dt", "5e-3",
                     "--out-prefix", prefix]) == 0
        header, _, _ = read_csv(tmp_path / "z_conservation.csv")
        with pytest.raises(KeyError):
            header_value(header, "dt_used")

    def test_wave_run_writes_drift(self, tmp_path):
        prefix = str(tmp_path / "wave")
        assert main(["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--N", "64",
                     "--T", "0.05", "--dt", "5e-5", "--out-prefix", prefix]) == 0
        header, _, _ = read_csv(tmp_path / "wave_conservation.csv")
        assert float(header_value(header, "max_rel_drift")) < 1e-9

    def test_growth_experiment_reports_stable_spectrum(self, tmp_path, capsys):
        code = main(["simulate", "--wave", "--L", "2", "--kappa", "0.3", "--N", "128",
                     "--T", "0.5", "--dt", "1e-4", "--perturb", "1e-6",
                     "--out-prefix", str(tmp_path / "g")])
        assert code == 1
        assert "spectrum is stable" in capsys.readouterr().err


class TestNormalFormCheck:
    def test_passes_with_defaults(self, tmp_path):
        out = tmp_path / "nf.csv"
        assert main(["normalform-check", "--trials", "20", "--out", str(out)]) == 0
        header, _, rows = read_csv(out)
        assert "passed=True" in "\n".join(header)
        assert len(rows) == 20
