"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``__init__`` (part
of set-up), runs one operation in ``op`` (the timed part) and validates that
operation's result in ``check``, which returns a list of problems; an empty
list means the operation succeeded.  ``scale`` shrinks the inputs for the
benchmark's own tests and is 1 in every benchmark run.

Workloads call ndcsim through module attributes (``pipeline.measure_peak``,
``tagio.send_to_terminal``) so that the traced run sees them.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
from pathlib import Path

import numpy as np

from ndcsim import cli, config, pipeline, presets, reproduce, tagio
from ndcsim.model import FWHM_PER_SIGMA
from ndcsim.streams import TagStream

# dense_two_site: two streams built like the 1e7-tag performance acceptance test.
DENSE_TAGS = 10**7
DENSE_SPAN_FS = 5 * 10**15
DENSE_SHIFT_FS = 10**9  # 1 us constructed offset of stream b
DENSE_JITTER_PS = 10.0  # rms of the Gaussian jitter on stream b
DENSE_OFFSET_TOLERANCE_FS = 10**6  # 1 ns
DENSE_FWHM_TOLERANCE = 0.05
TERMINAL_TIMEOUT_S = 120.0

# simulate_long: the fig2d configuration at 5x the paper's acquisition.
SIMULATE_LONG_S = 5 * presets.ACQUISITION_S


class Witness:
    """``reproduce("wasak", seed)``: fig2a plus fig2d at the paper's acquisition."""

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale

    def op(self):
        return reproduce.reproduce("wasak", seed=self.seed, scale=self.scale)

    def check(self, report) -> list[str]:
        return [] if report.passed else [f"witness report failed:\n{report.text()}"]


class DenseTwoSite:
    """Two dense streams sent over loopback TCP, then correlated and fitted."""

    def __init__(self, seed: int, scale: float, workdir: Path):
        rng = np.random.default_rng(seed)
        n = max(2, round(DENSE_TAGS * scale))
        span = round(DENSE_SPAN_FS * scale)
        base = np.sort(rng.integers(0, span, n))
        jitter = rng.normal(0.0, DENSE_JITTER_PS * 1e3, n).astype(np.int64)
        self.sent = {
            0: TagStream(base, 1000, 0, span),
            1: TagStream(np.sort(base + jitter + DENSE_SHIFT_FS), 1000, 1,
                         span + 2 * DENSE_SHIFT_FS),
        }

    def op(self):
        terminal = tagio.Terminal()
        received: dict = {}
        errors: list[BaseException] = []

        def collect():
            try:
                received.update(terminal.collect(n_sites=len(self.sent)))
            except Exception as exc:  # re-raised on the operation's thread
                errors.append(exc)

        thread = threading.Thread(target=collect, name="terminal")
        thread.start()
        try:
            for stream in self.sent.values():
                tagio.send_to_terminal(stream, ("127.0.0.1", terminal.port))
        finally:
            thread.join(timeout=TERMINAL_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("terminal thread did not finish")
        if errors:
            raise errors[0]
        meas = pipeline.measure_peak(received[0], received[1])
        return received, meas

    def check(self, result) -> list[str]:
        received, meas = result
        problems = [
            f"site {site}: received stream differs from the sent one"
            for site, stream in self.sent.items()
            if received.get(site) != stream
        ]
        if abs(meas.offset_fs - DENSE_SHIFT_FS) > DENSE_OFFSET_TOLERANCE_FS:
            problems.append(
                f"offset {meas.offset_fs} fs is not within 1 ns of {DENSE_SHIFT_FS} fs")
        expected = FWHM_PER_SIGMA * DENSE_JITTER_PS
        if abs(meas.fit.fwhm_ps - expected) > DENSE_FWHM_TOLERANCE * expected:
            problems.append(
                f"FWHM {meas.fit.fwhm_ps:.3f} ps is not within 5% of {expected:.3f} ps")
        return problems


class SimulateLong:
    """``ndcsim simulate`` on the fig2d config file at 25 s of acquisition.

    The first operation of a run records the digests of both tag files in
    the work directory; every later one, in this process or another worker
    of the same run, must write the same bytes.
    """

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.config_path = workdir / "fig2d_long.cfg"
        self.config_path.write_text(
            config.dump_config(presets.fig2d_config(duration_s=SIMULATE_LONG_S * scale)))
        self.prefix = workdir / "long"
        self.reference_path = workdir / "reference_digests.json"

    def op(self):
        return cli.main(["simulate", "--config", str(self.config_path),
                         "--out", str(self.prefix), "--seed", str(self.seed)])

    def check(self, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"simulate exited with code {exit_code}"]
        manifest = json.loads(Path(f"{self.prefix}_manifest.json").read_text())
        problems = []
        digests = {}
        for arm in ("a", "b"):
            raw = Path(f"{self.prefix}_{arm}.tags").read_bytes()
            digests[arm] = hashlib.sha256(raw).hexdigest()
            n = len(tagio.read_tags(io.BytesIO(raw)))
            if n != manifest["tags"][arm]:
                problems.append(f"arm {arm}: file holds {n} tags, manifest says "
                                f"{manifest['tags'][arm]}")
        if not self.reference_path.exists():
            self.reference_path.write_text(json.dumps(digests))
        elif json.loads(self.reference_path.read_text()) != digests:
            problems.append("tag file bytes differ from the first run with this seed")
        return problems


WORKLOADS = {
    "witness": Witness,
    "dense_two_site": DenseTwoSite,
    "simulate_long": SimulateLong,
}
