"""Byte pins of the data files each subcommand writes.

Each case runs one subcommand in-process at a small fixed config and seed
(``SEED`` unless the case names its own) and compares the SHA-256 of ``report.csv`` and of every ``series_*.csv``
with the digest recorded here.  ``summary.json`` is pinned too, without its
``generated-at`` line and with the output directory echoed in its config
replaced by a fixed name: that pin covers the notes, the check counts
and the echoed config, which the CSVs do not carry.
A refactor must leave every digest as it is.

The digests hold for the build they were recorded on: numpy 2.4.6 with
OpenBLAS 0.3.31 (scipy 1.17.1), x86-64.  Another numpy or BLAS build may
change the last bits of a matrix product or a reduction and so the bytes.
They do not depend on ``OPENBLAS_NUM_THREADS``, the number of cores or
``--workers``: ``montecarlo.map_blocks`` runs every sample block on one
BLAS thread, and ``--workers`` is the only parallelism setting.
A repin is allowed only for a declared change to the random stream or the
numerics, recorded in CHANGES.md with the old and new digests.

The wave case exits 1 at this seed: its ``energy_variance`` row at t=0.3
reads z=-3.36, one of the false alarms of the 3-sigma gate.  The pin keeps
that row as it is, ``pass`` flag included.
"""

import hashlib
import json

import pytest

from spde_lab import cli

SEED = 7

# 2^64 + 5: a master seed of three 32-bit words, so a keying error that shows
# only for seeds wider than one word moves a pinned byte.
WIDE_SEED = 2**64 + 5

PINS = {
    "wave": (
        ["wave", "--modes", "4", "--c", "1.3", "--l", "0.7", "--g-mode", "2",
         "--dt", "0.05", "--t-final", "0.5", "--samples", "300"],
        {
            "report.csv": "16f4034227e43fff7e8adb27be8742c7381f6da97295118600127a9d968b05fc",
            "series_energy.csv": "e1c936e6dc71d8024d910f44b6ab494a9023053a46a419f89e45cf24001d344d",
        },
    ),
    "heat": (
        ["heat", "--samples", "300"],
        {
            "report.csv": "5a8554044494bad7562966cc3b20cbdc1b841211debc8aef9beaf0f2c24768ae",
            "series_mean_norm.csv": "8b59697714cc2292c0c28696b8254622ae1a82314e680de29fd73dfa5333c76e",
        },
    ),
    "heat-wide-seed": (
        ["heat", "--samples", "300", "--seed", str(WIDE_SEED)],
        {
            "report.csv": "b389dd179056d4ca246957db8c5dd6e0fbb6b855754bd9517b909ee34fb8f089",
            "series_mean_norm.csv": "8b59697714cc2292c0c28696b8254622ae1a82314e680de29fd73dfa5333c76e",
        },
    ),
    "wiener": (
        ["wiener", "--modes", "8", "--samples", "300"],
        {
            "report.csv": "f4ab6fcf6ce35182a4d437e42d900c1d207131c4e34f6b9b324966190e286772",
            "series_norm2.csv": "871694eaa1edc5d4483dd4f8c78010939fb3631a289fe51fe64e9d4f4ba5b4a1",
        },
    ),
    "wiener-wide-seed": (
        ["wiener", "--modes", "8", "--samples", "300", "--seed", str(WIDE_SEED)],
        {
            "report.csv": "c0832b0761c6514d85a6d354dc4b7c957a5d8557ec3105a9f39bc9c5727eb0b9",
            "series_norm2.csv": "594f5c5b82af822241b4788915a47a84d7f8cdf8ca3b68d7e1fac9bbf63f277b",
        },
    ),
    "lyapunov": (
        ["lyapunov", "--t-final", "10"],
        {
            "report.csv": "b62b6d586b4baba36971d4f79d5c95df436dec1c09884abca5d3c18b0d321c4b",
            "series_lognorm.csv": "bd12940ecf8cd2ec01e63f0bff5acc27580d7a6f77e47909cc01a58dcb2fa754",
        },
    ),
    "burgers-additive": (
        ["burgers", "--noise", "additive", "--modes", "8", "--dt", "0.001",
         "--t-final", "0.05", "--samples", "40"],
        {
            "report.csv": "3578ef6cae94b97cab5536e8dff25dae00005dc367dee5deeab982e07dc35138",
            "series_energy.csv": "007d2ded9e4729d8abc0af0dadde7264cdf0b2f404b618649ede5811d0708eb5",
        },
    ),
    "burgers-multiplicative": (
        ["burgers", "--noise", "multiplicative", "--modes", "8", "--dt", "0.001",
         "--t-final", "0.05", "--samples", "40"],
        {
            "report.csv": "8148e8f83178a28432168c3a7e3bdf80d74fddbfea792e076eb2a6405fb78818",
            "series_energy.csv": "e006a634a4a88e678c929844060e98bdd7b492544b1ab1fb6e628ff4a72b9f28",
        },
    ),
}


SUMMARY_PINS = {
    "burgers-additive": "8a1282080c42a5c562a3d6fcb87eee4dffb38d09d97b10279dfd7c532fbc9919",
    "burgers-multiplicative": "acfb68ba66a4c8ef068f7e3ef1b3220505cffc685c787665a24e7114fb26c775",
    "heat": "69fc1fc59a6a62e65119b9e4c647d5dbc6a2bc5c2b59b9a95ada4d4563737089",
    "heat-wide-seed": "6790d8fbc484512fbdb5b5a3456c4d0b80e429e726599e32973f3f9d7bc5171f",
    "lyapunov": "cdfb1d132902bd79ed91c3ded86719a174f4b603e15657a12d5ff5a3335ef989",
    "wave": "140de70bfb1a7f54189139468d6f74e44cbcc9c3ff21bb21222e2a988813f958",
    "wiener": "3d9dd4774f020bedde3f4fb72354b7ce2a50d4ebae674b93be8d5fe493f235ee",
    "wiener-wide-seed": "f6c4103bb04573ffa3181c4deff33623f01fb07e328f4b84186369111d8f7d23",
}


def summary_digest(path, out_dir) -> str:
    """SHA-256 of ``summary.json`` less its ``generated-at`` line, with
    ``out_dir`` replaced by ``OUT``."""
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.lstrip().startswith(b'"generated-at"'))
    kept = kept.replace(json.dumps(str(out_dir)).encode(), b'"OUT"')
    return hashlib.sha256(kept).hexdigest()


@pytest.mark.parametrize("case", sorted(PINS))
def test_data_files_match_pins(case, tmp_path):
    argv, digests = PINS[case]
    seed = [] if "--seed" in argv else ["--seed", str(SEED)]
    code = cli.run(argv + seed + ["--out", str(tmp_path)])
    assert code in (0, 1), f"{case}: exit code {code}"
    written = {p.name for p in tmp_path.glob("series_*.csv")} | {"report.csv"}
    assert written == set(digests), f"{case}: wrote {sorted(written)}"
    for name, digest in digests.items():
        actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert actual == digest, f"{case}: {name} differs from its pin (sha256 {actual})"
    actual = summary_digest(tmp_path / "summary.json", tmp_path)
    assert actual == SUMMARY_PINS[case], (
        f"{case}: summary.json differs from its pin (sha256 {actual})"
    )
