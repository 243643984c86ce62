import io
import json
import math
import os
import subprocess
import sys

import pfqint
from conftest import relerr
from pfqint.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestScalarCommands:
    def test_fourier_example(self):
        code, out, _ = invoke(["fourier", "--theta", "1", "--k", "2"])
        assert code == 0
        record = json.loads(out)
        assert relerr(record["value_re"], 0.65204933217329218306) < 1e-13
        assert record["converged"] is True

    def test_lemma_check(self):
        code, out, _ = invoke([
            "identity-check", "--id", "lemma1", "--alpha", "0", "--beta", "1",
            "--gamma", "1", "--n", "2", "--j", "2",
        ])
        assert code == 0
        assert json.loads(out)["value_re"] == 0.0

    def test_definite_hidden_cosine(self):
        code, out, _ = invoke([
            "definite", "--kernel", "exp", "--alpha", "0", "--beta", "1",
            "--eta", "0", "--gamma", "2", "--lambda", "-0.25",
            "--q-params", "0.5", "--a", "0", "--b", "1",
        ])
        assert code == 0
        assert relerr(json.loads(out)["value_re"], math.sin(1.0)) < 1e-12

    def test_pfq_complex_flags(self):
        code, out, _ = invoke(["pfq", "--z", "1", "--z-im", "1"])
        assert code == 0
        record = json.loads(out)
        import cmath

        ref = cmath.exp(1 + 1j)
        assert relerr(complex(record["value_re"], record["value_im"]), ref) < 1e-13

    def test_laplace_and_erf(self):
        code, out, _ = invoke(["laplace", "--alpha", "0", "--theta", "1",
                               "--u", "10"])
        assert code == 0
        assert abs(json.loads(out)["value_re"] - 0.098109430731538791444) < 1e-11
        code, out, _ = invoke(["laplace", "--erf", "--u", "20"])
        assert code == 0
        assert abs(json.loads(out)["value_re"] - 0.0024876829695611743685) < 1e-12

    def test_airy(self):
        code, out, _ = invoke(["airy", "--z", "1"])
        assert code == 0
        assert relerr(json.loads(out)["value_re"], 0.13529241631288141552) < 1e-12

    def test_os_solve_both_emits_discrepancy(self):
        code, out, _ = invoke(["os-solve", "--y", "0.5", "--k", "0.3", "--r", "1",
                               "--re", "2", "--omega-im", "0.1",
                               "--method", "both"])
        assert code == 0
        record = json.loads(out)
        assert any("discrepancy" in w for w in record["warnings"])
        assert any("grouping" in w for w in record["warnings"])


class TestExitCodes:
    def test_help_exits_clean(self):
        code, _, _ = invoke(["--help"])
        assert code == 0

    def test_usage_error(self):
        code, out, _ = invoke(["definite", "--kernel", "nope", "--a", "0",
                               "--b", "1"])
        assert code == 1

    def test_input_error_message(self):
        code, _, err = invoke(["laplace", "--alpha", "-2", "--theta", "1",
                               "--u", "10"])
        assert code == 1
        assert "error" in err

    def test_not_converged_exits_two_with_result(self):
        code, out, _ = invoke(["pfq", "--p-params", "1", "--q-params", "0.5",
                               "--z", "0.9", "--max-terms", "4"])
        assert code == 2
        record = json.loads(out)
        assert record["converged"] is False
        assert record["terms_used"] == 4


class TestModuleEntryPoint:
    def test_python_m_matches_in_process_run(self):
        argv = ["pfq", "--p-params", "1", "--q-params", "0.5", "--z", "0.3",
                "--z-im", "-0.2"]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(pfqint.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "pfqint.cli"] + argv, env=env,
                              capture_output=True, timeout=60)
        code, out, _ = invoke(argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()


class TestDeterminism:
    def test_bit_stable_output(self):
        argv = ["fourier", "--theta", "2", "--k", "1"]
        _, first, _ = invoke(argv)
        _, second, _ = invoke(argv)
        assert first == second

    def test_round_trip_reproduces_value_string(self):
        argv = ["laplace", "--alpha", "0.5", "--theta", "1", "--u", "12"]
        _, out, _ = invoke(argv)
        record = json.loads(out)
        rebuilt = [
            "laplace",
            "--alpha", repr(record["inputs"]["alpha"]),
            "--theta", repr(record["inputs"]["theta"]),
            "--u", repr(record["inputs"]["u_re"]),
            "--u-im", repr(record["inputs"]["u_im"]),
        ]
        _, again, _ = invoke(rebuilt)
        assert json.loads(again)["value_re"] == record["value_re"]
        assert again.split('"value_re":')[1] == out.split('"value_re":')[1]


class TestSweep:
    def test_row_count_and_monotone_grid(self):
        code, out, _ = invoke(["sweep", "fourier", "--param", "k",
                               "--start", "0", "--stop", "4", "--steps", "8",
                               "--theta", "1"])
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 9
        values = [r["inputs"]["sweep_value"] for r in rows]
        assert values == sorted(values)
        assert values[0] == 0.0 and values[-1] == 4.0

    def test_csv_format(self):
        code, out, _ = invoke(["sweep", "fourier", "--param", "k",
                               "--start", "0", "--stop", "2", "--steps", "2",
                               "--theta", "1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("index,param,value")
        assert len(lines) == 4
        first_value = float(lines[1].split(",")[3])
        assert relerr(first_value, math.sqrt(math.pi)) < 1e-13

    def test_negative_exponent_values(self):
        # repr(-1e-05) starts like a flag; each swept value must still parse.
        code, out, _ = invoke(["sweep", "pfq", "--param=z", "--start=-0.00001",
                               "--stop=-0.00002", "--steps=2"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        for row in rows:  # 0F0(;;z) = e^z
            z = row["inputs"]["z_re"]
            assert z == row["inputs"]["sweep_value"] < 0
            assert relerr(row["value_re"], math.exp(z)) < 1e-15

    def test_seventeen_digit_floats(self):
        _, out, _ = invoke(["fourier", "--theta", "1", "--k", "2"])
        text = json.loads(out)
        assert format(text["value_re"], ".17g") in out
