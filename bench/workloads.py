"""The three benchmark workloads and the checks on their outputs.

Each workload is built from the benchmark seed alone, warms up, and then
runs *passes*: one pass is the fixed job the workload stands for.  Pass
``k`` of seed ``s`` always gets the same inputs, so the default seed's first
pass can be checked against digests pinned from the seed commit.

* ``mc-1e5``: 100 sequential ``run_protocol`` calls at N = 100,001 pulses,
  cycling through five source strategies, every 10th transcript serialized,
  then one CHSH noise-gap experiment.  Many short calls.
* ``keygen-3e6``: one ``run_protocol`` call at n = 3e6 sifted bits that
  leaves a 124,288-bit secret key.  Memory and Toeplitz hashing dominate.
* ``analysis-grids``: the README analysis jobs through ``diqkd.cli.main``,
  once at README size and then timed over and over with small grids.
  Per-cell 4x4 linear algebra and Dykstra iterations; deterministic, so the
  seed is ignored.

The jobs of ``mc-1e5`` and ``analysis-grids`` are timed between two runs of
a calibration loop and scaled by it, so that their times do not follow the
host's speed (see ``Calibration``).
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from tracing import highest_reportable, percentile, samples_beyond

# The README `simulate` / `bounds-check` protocol configuration: N = 100,001 pulses, l = 0.
MC_CONFIG = dict(n=46550, q=0.3, delta=0.05, s0=0.0, eps=1e-9, eps_cor=1e-9, f_ec=1.0, l_syn=100_000)
PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())
DEFAULT_SEED = 0


class Checks:
    """Counts attempted and failed checks; a raised call is a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @contextlib.contextmanager
    def guard(self, what: str):
        try:
            yield
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.attempted += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


class Calibration:
    """Scales a job's wall time by a fixed loop timed just before and after it.

    On a shared host the CPU speed drifts by up to 1.9x, over seconds to many
    minutes, and a run's median follows it.  The loop does the kind of work
    the job does but runs no diqkd code, so it follows the host's speed and
    no change to the program can move it.  ``ref_s`` is about the loop's
    fastest time on the reference host, an Intel Xeon at 2.1 GHz with Python
    3.11.7 and numpy 2.4.6, so that scaled times there read close to wall
    times on an idle host.
    """

    def __init__(self, loop, ref_s: float, burst: int = 1) -> None:
        self.loop = loop
        self.ref_s = ref_s
        self.burst = burst  # loop runs per tick; a tick records their median
        self.samples: list[float] = []

    def tick(self) -> None:
        times = []
        for _ in range(self.burst):
            t0 = time.perf_counter()
            self.loop()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))

    def factor(self) -> float:
        """The scale for a job that ran since the last ``tick``; ticks again."""
        before = self.samples[-1]
        self.tick()
        return self.ref_s / (0.5 * (before + self.samples[-1]))


_CAL_RNG = np.random.default_rng(20261017)
_CAL_MATS = [a + a.conj().T for a in _CAL_RNG.standard_normal((48, 4, 4)) + 1j * _CAL_RNG.standard_normal((48, 4, 4))]
_CAL_PAULI = (np.array([[0, 1], [1, 0]], complex), np.array([[1, 0], [0, -1]], complex))
_CAL_N = 100_000
_CAL_U = _CAL_RNG.random(_CAL_N)
_CAL_PMF = _CAL_RNG.random((_CAL_N, 4))
_CAL_X = _CAL_RNG.random(1 << 17)


# About each loop's fastest time on the reference host (see Calibration).
CELL_LOOP_REF_S = 1.6e-3
ARRAY_LOOP_REF_S = 7.4e-3


def cell_loop() -> float:
    """Interpreter-bound Python and 4x4 numpy linear algebra, as in a grid cell."""
    acc = 0.0
    for m in _CAL_MATS:
        w = np.linalg.eigvalsh(m)
        acc += float(w[0]) + float(np.trace(m @ np.kron(*_CAL_PAULI)).real)
        for j in range(100):
            acc += (j * 0.5) % 3.0
    return acc


def array_loop() -> float:
    """Row-wise cumsum sampling and an FFT convolution at 1e5 elements, as in a protocol run."""
    outcomes = (_CAL_U[:, None] < np.cumsum(_CAL_PMF, axis=1)).argmax(axis=1)
    conv = np.fft.irfft(np.fft.rfft(_CAL_X) * np.fft.rfft(_CAL_X[::-1]))
    return float(outcomes.sum()) + float(conv[0])


class Workload:
    """Defaults shared by the workloads; ``run_pass`` is the timed job."""

    def full_check(self, checks: Checks) -> None:
        """Checks made once per measured run, before the timed passes."""

    def trace_pass(self, checks: Checks) -> None:
        """The job the traced run measures."""
        self.run_pass(0, checks)

    def close(self) -> None:
        """Remove what the workload left on disk."""


def _within(value: float, exact: float, sigma: float) -> bool:
    return abs(value - exact) <= 5.0 * sigma


def _run_checks(checks: Checks, t, label: str) -> bool:
    return checks.check(
        t.abort is None
        and t.fcor_match is True
        and np.array_equal(t.secret_key_a, t.secret_key_b),
        f"{label}: abort={t.abort} fcor_match={t.fcor_match} or keys differ",
    )


def _sifted_qber(t) -> float:
    return float(np.mean(t.sifted_key != t.bob_raw))


class MonteCarlo(Workload):
    name = "mc-1e5"
    runs_per_pass = 100
    json_every = 10
    # Error rates of the depolarizing sources, then (alpha, beta, p) of the misaligned one.
    DEPOLARIZING = (0.0, 0.02, 0.05, 0.1)
    MISALIGNED = (cmath.exp(0.3j), cmath.exp(-1.2j), 0.02)

    def __init__(self, seed: int, scratch: Path) -> None:
        from diqkd import protocol, rates
        from diqkd.chsh import chsh_measurement

        self.protocol = protocol
        self.seed = seed
        self.params = rates.ProtocolParams(**MC_CONFIG)
        self.strategies = [protocol.DepolarizingSource(p) for p in self.DEPOLARIZING]
        self.strategies.append(protocol.MisalignedSource(*self.MISALIGNED))
        a, b, p_mis = self.MISALIGNED
        mu = (1 + a + b - a * b) / 4
        nu = (1 + a + b.conjugate() - a * b.conjugate()) / 4
        self.exact_s = [(1 - 2 * p) / math.sqrt(2) for p in self.DEPOLARIZING]
        self.exact_s.append((1 - 2 * p_mis) * max(abs(mu), abs(nu)))
        self.noise_measurement = chsh_measurement(-1j, -1j)
        self.run_ms: list[float] = []
        self.json_s: list[float] = []
        self.noise_s: list[float] = []
        # Protocol runs and the noise experiment are numpy-bound, to_json is
        # interpreter-bound: each is scaled by the loop of its kind.
        self.array_cal = Calibration(array_loop, ARRAY_LOOP_REF_S)
        self.cell_cal = Calibration(cell_loop, CELL_LOOP_REF_S)
        self.scaled_run_ms: list[float] = []
        self.scaled_pass_s: list[float] = []

    def run_seed(self, pass_index: int, r: int) -> int:
        return self.seed * 10**6 + pass_index * 1000 + r

    def warm_up(self) -> None:
        for k, strategy in enumerate(self.strategies):
            t = self.protocol.run_protocol(self.params, strategy, seed=self.run_seed(999, k))
        t.to_json()
        self._noise(np.random.default_rng(self.run_seed(999, 99)), trials=20)

    def _noise(self, rng, trials: int = 2000):
        return self.protocol.povm_noise_experiment(
            self.noise_measurement,
            self.strategies[0].pulse_state(0),
            trials=trials,
            rng=rng,
            batch_size=4800,
            deviation=0.1,
        )

    def run_pass(self, pass_index: int, checks: Checks) -> None:
        rows, docs = [], []
        s_by_strategy = [[] for _ in self.strategies]
        qber_by_strategy = [[] for _ in self.strategies]
        scaled_total = 0.0
        self.array_cal.tick()
        for r in range(self.runs_per_pass):
            seed = self.run_seed(pass_index, r)
            k = r % len(self.strategies)
            with checks.guard(f"run seed {seed}"):
                t0 = time.perf_counter()
                t = self.protocol.run_protocol(self.params, self.strategies[k], seed=seed)
                elapsed = time.perf_counter() - t0
                scaled = elapsed * self.array_cal.factor()
                self.run_ms.append(1e3 * elapsed)
                self.scaled_run_ms.append(1e3 * scaled)
                scaled_total += scaled
                if _run_checks(checks, t, f"run seed {seed}"):
                    q = _sifted_qber(t)
                    s_by_strategy[k].append(t.s_est)
                    qber_by_strategy[k].append(q)
                    match = int(np.array_equal(t.secret_key_a, t.secret_key_b))
                    rows.append(f"{seed},{t.s_est!r},{q!r},{len(t.secret_key_a)},{match},{t.abort}")
                if r % self.json_every == self.json_every - 1:
                    self.cell_cal.tick()
                    t0 = time.perf_counter()
                    docs.append(t.to_json())
                    elapsed = time.perf_counter() - t0
                    self.json_s.append(elapsed)
                    scaled_total += elapsed * self.cell_cal.factor()
        with checks.guard("noise-gap experiment"):
            self.array_cal.tick()
            t0 = time.perf_counter()
            gap = self._noise(np.random.default_rng(self.run_seed(pass_index, 999)))
            elapsed = time.perf_counter() - t0
            self.noise_s.append(elapsed)
            scaled_total += elapsed * self.array_cal.factor()
            checks.check(gap.empirical_tail <= gap.bound, "noise gap tail exceeds the Azuma bound")
        self.scaled_pass_s.append(scaled_total)

        l_smp, n = self.params.l_smp, self.params.n
        for k, exact in enumerate(self.exact_s):
            s_vals = s_by_strategy[k]
            if not checks.check(len(s_vals) > 0, f"strategy {k}: no completed runs"):
                continue
            sigma = math.sqrt((1 - exact**2) / (len(s_vals) * l_smp))
            checks.check(
                _within(float(np.mean(s_vals)), exact, sigma),
                f"strategy {k}: mean S {np.mean(s_vals):.6f} not within 5 sigma of {exact:.6f}",
            )
            if k < len(self.DEPOLARIZING):
                p = self.DEPOLARIZING[k]
                sigma = math.sqrt(p * (1 - p) / (len(s_vals) * n))
                checks.check(
                    _within(float(np.mean(qber_by_strategy[k])), p, sigma),
                    f"strategy {k}: mean sifted QBER not within 5 sigma of {p}",
                )
        if self.seed == DEFAULT_SEED and pass_index == 0:
            pinned = PINNED[self.name]
            _check_digest(checks, _digest(rows), pinned["rows"], "mc-1e5 result rows")
            _check_digest(checks, _digest(docs), pinned["transcripts"], "mc-1e5 transcripts")

    def timing(self, pass_s: list[float]) -> dict:
        return {
            "wall_s": statistics.median(self.scaled_pass_s),
            "call_ms": statistics.median(self.scaled_run_ms),
        }

    def extra(self) -> dict:
        n = len(self.run_ms)
        out = {
            "runs_per_s": (n / (1e-3 * sum(self.run_ms)), "1/s", n),
            "run_ms_p50": (float(np.median(self.run_ms)), "ms", n),
            "noise_gap_s": (float(np.median(self.noise_s)), "s", len(self.noise_s)),
            "to_json_s": (float(np.median(self.json_s)), "s", len(self.json_s)),
            "array_loop_p50_s": (statistics.median(self.array_cal.samples), "s", len(self.array_cal.samples)),
            "cell_loop_p50_s": (statistics.median(self.cell_cal.samples), "s", len(self.cell_cal.samples)),
        }
        q = highest_reportable(n)
        if q is not None and q > 50:
            out[f"run_ms_p{q:g}"] = (percentile(self.run_ms, q), f"ms, {samples_beyond(n, q)} beyond", n)
        return out


class KeyGen(Workload):
    name = "keygen-3e6"
    key_bits = 124_288
    p = 0.002

    def __init__(self, seed: int, scratch: Path) -> None:
        from diqkd import protocol, rates

        self.protocol = protocol
        self.seed = seed
        n = 3_000_000
        self.params = rates.ProtocolParams(
            n=n, q=0.2, delta=0.01, s0=0.69, eps=1e-9, eps_cor=1e-9, f_ec=1.0,
            l_syn=rates.syndrome_budget(n, 0.005, 1.0),
        )
        self.strategy = protocol.DepolarizingSource(self.p)
        self.small = rates.ProtocolParams(**MC_CONFIG)
        self.key_s: list[float] = []
        # A run lasts 7-8 s and the host's speed swings within it, so each tick
        # takes the median of a burst of loops.
        self.cal = Calibration(array_loop, ARRAY_LOOP_REF_S, burst=15)
        self.scaled_key_s: list[float] = []
        self.scaled_pass_s: list[float] = []

    def warm_up(self) -> None:
        self.protocol.run_protocol(self.small, self.strategy, seed=self.seed * 10**6 + 999_999)

    def run_pass(self, pass_index: int, checks: Checks) -> None:
        self.cal.tick()
        t0 = time.perf_counter()
        key_s = self._key_pass(pass_index, checks, t0)
        elapsed = time.perf_counter() - t0
        factor = self.cal.factor()
        self.scaled_pass_s.append(elapsed * factor)
        if key_s is not None:
            self.key_s.append(key_s)
            self.scaled_key_s.append(key_s * factor)

    def _key_pass(self, pass_index: int, checks: Checks, t0: float) -> float | None:
        """One keygen run and its checks; the run's time in s, or None if it raised."""
        seed = self.seed * 10**6 + pass_index
        key_s = None
        with checks.guard(f"keygen seed {seed}"):
            t = self.protocol.run_protocol(self.params, self.strategy, seed=seed)
            key_s = time.perf_counter() - t0
            if not _run_checks(checks, t, f"keygen seed {seed}"):
                return key_s
            key = t.secret_key_a
            checks.check(len(key) == self.key_bits, f"key has {len(key)} bits, not {self.key_bits}")
            exact = (1 - 2 * self.p) / math.sqrt(2)
            l_smp, n = self.params.l_smp, self.params.n
            checks.check(
                _within(t.s_est, exact, math.sqrt((1 - exact**2) / l_smp)),
                f"S estimate {t.s_est} not within 5 sigma of {exact}",
            )
            checks.check(
                _within(_sifted_qber(t), self.p, math.sqrt(self.p * (1 - self.p) / n)),
                "sifted QBER not within 5 sigma of p",
            )
            if self.seed == DEFAULT_SEED and pass_index == 0:
                packed = np.packbits(key.astype(np.uint8), bitorder="little").tobytes()
                digest = hashlib.sha256(packed).hexdigest()
                _check_digest(checks, digest, PINNED[self.name]["key"], "keygen-3e6 secret key")
        return key_s

    def timing(self, pass_s: list[float]) -> dict:
        return {
            "wall_s": statistics.median(self.scaled_pass_s),
            "call_ms": 1e3 * statistics.median(self.scaled_key_s),
        }

    def extra(self) -> dict:
        return {
            "keygen_s": (float(np.median(self.key_s)), "s, unscaled", len(self.key_s)),
            "array_loop_p50_s": (statistics.median(self.cal.samples), "s, median of 15 per tick", len(self.cal.samples)),
        }


class AnalysisGrids(Workload):
    name = "analysis-grids"
    # (job, argv, output file): the README analysis configurations, run once per
    # measured run and in the traced pass, and checked against the pinned digests.
    README_JOBS = [
        ("verify_squash", ["verify-squash", "--grid", "64", "--tol", "1e-9"], "squash.json"),
        ("nogo", ["nogo", "--grid", "16"], "nogo.json"),
        (
            "rate_curve",
            ["rate-curve", "--p-min", "0", "--p-max", "0.08", "--steps", "161", "--f-ec", "1.0"],
            "rates.csv",
        ),
        (
            "keylength",
            ["keylength", "--n", "100000000", "--q", "0.0909", "--delta", "0.01", "--s0", "0.69",
             "--eps", "1e-9", "--eps-cor", "1e-9", "--p-est", "0.01"],
            "keylength.json",
        ),
    ]
    # The timed pass: the same four jobs with the two grids cut to a few cells
    # (verify-squash 16x16, a subset of the 64x64 angles; nogo 4, two feasible and
    # two infeasible cells).  A job takes a fraction of a second, so the
    # calibration loop on each side of it sees the host speed it ran at.
    JOBS = [
        ("verify_squash", ["verify-squash", "--grid", "16", "--tol", "1e-9"], "squash16.json"),
        ("nogo", ["nogo", "--grid", "4"], "nogo4.json"),
        README_JOBS[2],
        README_JOBS[3],
    ]
    WARM_UP = [
        ["verify-squash", "--grid", "2"],
        ["nogo", "--grid", "1"],
        ["rate-curve", "--steps", "2"],
        ["keylength", "--n", "1000", "--q", "0.1", "--delta", "0.1", "--s0", "0.5"],
    ]

    def __init__(self, seed: int, scratch: Path) -> None:
        from diqkd import cli

        self.cli = cli
        self.scratch = scratch
        self.out: Path | None = None
        self.job_s: dict[str, list[float]] = {job: [] for job, _, _ in self.JOBS}
        self.scaled_s: dict[str, list[float]] = {job: [] for job, _, _ in self.JOBS}
        self.scaled_pass_s: list[float] = []
        self.cal = Calibration(cell_loop, CELL_LOOP_REF_S)
        self.readme_s: dict[str, float] = {}

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def _out_dir(self) -> Path:
        if self.out is None:
            self.out = Path(tempfile.mkdtemp(dir=self.scratch))
        return self.out

    def close(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out)
            self.out = None

    def warm_up(self) -> None:
        for argv in self.WARM_UP:
            self._main(argv + ["--out", str(self._out_dir() / "warm")])

    def _run_job(self, job: str, argv: list[str], filename: str, checks: Checks) -> float:
        """Run one CLI job and check its output; its time in s, or NaN if it raised."""
        path = self._out_dir() / filename
        elapsed = math.nan
        with checks.guard(job):
            t0 = time.perf_counter()
            code = self._main(argv + ["--out", str(path)])
            elapsed = time.perf_counter() - t0
            checks.check(code == 0, f"{job} exited with {code}")
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            _check_digest(checks, digest, PINNED[self.name][filename], filename)
        return elapsed

    def full_check(self, checks: Checks) -> None:
        for job, argv, filename in self.README_JOBS:
            self.readme_s[job] = self._run_job(job, argv, filename, checks)

    def trace_pass(self, checks: Checks) -> None:
        for job in self.README_JOBS:
            self._run_job(*job, checks)

    def run_pass(self, pass_index: int, checks: Checks) -> None:
        total = 0.0
        self.cal.tick()
        for job, argv, filename in self.JOBS:
            elapsed = self._run_job(job, argv, filename, checks)
            scaled = elapsed * self.cal.factor()
            self.job_s[job].append(elapsed)
            self.scaled_s[job].append(scaled)
            total += scaled
        self.scaled_pass_s.append(total)

    def timing(self, pass_s: list[float]) -> dict:
        return {
            "wall_s": statistics.median(self.scaled_pass_s),
            "call_ms": 1e3 * statistics.median(self.scaled_s["verify_squash"]),
        }

    def extra(self) -> dict:
        out = {}
        for job, times in self.job_s.items():
            out[f"{job}_p50_s"] = (statistics.median(times), "s, unscaled", len(times))
        out["cell_loop_p50_s"] = (statistics.median(self.cal.samples), "s", len(self.cal.samples))
        for job, t in self.readme_s.items():
            out[f"{job}_s"] = (t, "s, README size, unscaled", 1)
        return out


def _check_digest(checks: Checks, digest: str, pinned: str, what: str) -> None:
    checks.check(digest == pinned, f"{what}: sha256 {digest} differs from the pinned {pinned}")


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (MonteCarlo, KeyGen, AnalysisGrids)}
