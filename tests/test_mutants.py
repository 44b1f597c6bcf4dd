"""The gate's power: known defects, injected one at a time, must fail runs.

A mutant is a ``monkeypatch`` of one name in the package; no mutant edits a
file.  Each runs through ``cli.run`` at seeds 0-4 at a small config and
must exit 1 in at least a declared number of the five runs.  Every run
passes ``--workers 1``: a patch in this process reaches a forked worker but
not a spawned one, and the default start method may not fork.  The
unmutated runs at the same configs and seeds are the gate's false alarms
and may exit 1 in at most a declared number.  Every run's bytes are
deterministic, so on the pinned build (see ``tests/test_pins.py``) the
counts below are exact; a declared change to the random stream may move
the marginal ones (heat epsilon, Burgers sigma, the Lyapunov drift).

Measured counts of exit 1 in five seeds (numpy 2.4.6, OpenBLAS 0.3.31):

===============================  ============================  ======
config                           mutant                        exit 1
===============================  ============================  ======
``wave --t-final 1``             none                          1 (seed 4)
``wave --t-final 1``             gain x 1.05, all modes        5
``wave --t-final 1``             gain x 1.10, mode 1           5
``wave --t-final 1``             Cholesky cross factor negated 5
``wave --t-final 1``             block-start key per sample    5
``wave --t-final 1``             block-local sample index      5
``heat``                         none                          1 (seed 0)
``heat``                         epsilon x 1.05 in sampler     3
``heat``                         Ito drift -eps^2/2 dropped    5
``heat``, 2 KiB time slices      running sums without carry    5
``heat``                         block-start key per sample    5
``heat``                         block-local sample index      5
``wiener`` defaults              none                          0
``wiener`` defaults              Q x 1.2 in the kernel         5
``wiener`` defaults              block-start key per sample    5
``wiener`` defaults              block-local sample index      4
``lyapunov`` defaults            none                          0
``lyapunov`` defaults            Ito drift dropped in the path 4
``lyapunov`` defaults            gamma x 1.5 in the path       5
``burgers`` (``BURGERS`` below)  none                          0
``burgers`` (``BURGERS`` below)  sigma x 1.5 in sampler        4
``burgers`` (``BURGERS`` below)  no diffusion (eigenvalues 0)  5
``burgers`` (``BURGERS`` below)  block-start key per sample    3
===============================  ============================  ======

The two keying mutants patch ``montecarlo._philox_keys`` and are asserted
on ``heat``, the cheapest config that catches both in every seed.

Not caught, so not asserted here (the gate has no power against them yet):

===============================  ===========================  ======
``wave`` defaults                gain x 1.10, mode 4          0
``wiener`` defaults              Q x 1.05 in the kernel       1
``lyapunov`` defaults            gamma x 1.10 in the path     0
``burgers`` (``BURGERS``)        sigma x 0.5 in sampler       0
``burgers`` (``BURGERS``)        block-local sample index     0 (ROADMAP item 13)
===============================  ===========================  ======
"""

from dataclasses import replace

import numpy as np
import pytest

from spde_lab import burgers, cli, heat, lyapunov, montecarlo, wave

WAVE = ["wave", "--t-final", "1"]
HEAT = ["heat"]
WIENER = ["wiener"]
LYAPUNOV = ["lyapunov"]
BURGERS = ["burgers", "--modes", "16", "--t-final", "0.5", "--samples", "200"]


def _exit_ones(argv, tmp_path, capsys) -> int:
    codes = [
        cli.run(argv + ["--workers", "1", "--seed", str(s), "--out", str(tmp_path / str(s))])
        for s in range(5)
    ]
    capsys.readouterr()
    assert set(codes) <= {0, 1}
    return sum(codes)


def _wave_gain(factor, mode=None):
    """Scale the noise gain g_n, in one mode or in all, in the increments."""
    def patch(monkeypatch):
        factors = wave._increment_factors

        def scaled(prob, grid):
            diagonal, a21 = factors(prob, grid)
            g = np.ones(prob.n_modes)
            g[slice(None) if mode is None else mode - 1] = factor
            return diagonal * g[:, np.newaxis], a21 * g

        monkeypatch.setattr(wave, "_increment_factors", scaled)
    return patch


def _sampler_scale(module, name, field, factor):
    """Run the sampler ``module.name`` on a problem with ``field`` scaled."""
    def patch(monkeypatch):
        sampler = getattr(module, name)
        monkeypatch.setattr(module, name, lambda prob, *args: sampler(
            replace(prob, **{field: factor * getattr(prob, field)}), *args))
    return patch


def _wave_cross_factor_flipped(monkeypatch):
    """Flip the sign of the Cholesky cross factor g l21 in the increments."""
    factors = wave._increment_factors

    def flipped(prob, grid):
        diagonal, a21 = factors(prob, grid)
        return diagonal, -a21

    monkeypatch.setattr(wave, "_increment_factors", flipped)


def _lyapunov_without_ito_drift(monkeypatch):
    # beta + gamma^2/2 cancels the path's Ito drift -gamma^2/2.
    path = lyapunov.log_norm_path
    monkeypatch.setattr(lyapunov, "log_norm_path", lambda prob, *args: path(
        replace(prob, beta=prob.beta + 0.5 * prob.gamma**2), *args))


def _burgers_without_diffusion(monkeypatch):
    monkeypatch.setattr(burgers.BurgersProblem, "eigenvalues",
                        property(lambda p: np.zeros(p.n_modes)))


def _heat_without_ito_drift(monkeypatch):
    monkeypatch.setattr(heat.HeatProblem, "drift_rates", property(lambda p: -p.eigenvalues))


def _sums_without_carry(slices):
    """``wiener.running_sums`` with every slice summed from zero, time-major."""
    r0 = 0
    for inc in slices:
        lead = r0 == 0
        sums = np.zeros((lead + inc.shape[1], inc.shape[0], *inc.shape[2:]))
        np.cumsum(inc, axis=1, out=sums[lead:].swapaxes(0, 1))
        yield r0, sums
        r0 += len(sums)


def _heat_without_carry(monkeypatch):
    # Two rows of a 128-sample block per slice: heat's five steps take three.
    monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 2048)
    monkeypatch.setattr(heat, "running_sums", _sums_without_carry)


def _keys_of_block_start(monkeypatch):
    """Key every sample of a block like the block's first sample."""
    keys = montecarlo._philox_keys
    monkeypatch.setattr(montecarlo, "_philox_keys", lambda seed, path, start, stop: np.repeat(
        keys(seed, path, start, start + 1), stop - start, axis=0))


def _keys_of_block_index(monkeypatch):
    """Key samples by their index within the block, so every block repeats the first."""
    keys = montecarlo._philox_keys

    def block_local(seed, path, start, stop):
        offset = start - start % montecarlo.BLOCK_SIZE
        return keys(seed, path, start - offset, stop - offset)

    monkeypatch.setattr(montecarlo, "_philox_keys", block_local)


@pytest.mark.parametrize(
    "argv, patch, caught",
    [
        pytest.param(WAVE, _wave_gain(1.05), 5, id="wave-gain-1.05"),
        pytest.param(WAVE, _wave_gain(1.10, mode=1), 5, id="wave-mode1-gain-1.10"),
        pytest.param(HEAT, _sampler_scale(heat, "simulate_block", "epsilon", 1.05), 3,
                     id="heat-epsilon-1.05"),
        pytest.param(HEAT, _heat_without_ito_drift, 5, id="heat-no-ito-drift"),
        pytest.param(HEAT, _heat_without_carry, 5, id="heat-sums-without-carry"),
        pytest.param(HEAT, _keys_of_block_start, 5, id="heat-keys-of-block-start"),
        pytest.param(HEAT, _keys_of_block_index, 5, id="heat-keys-of-block-index"),
        pytest.param(BURGERS, _sampler_scale(burgers, "trace_block", "sigma", 1.5), 4,
                     id="burgers-sigma-1.5"),
        pytest.param(WIENER, _sampler_scale(cli, "_wiener_block", "eigenvalues", 1.2), 5,
                     id="wiener-q-1.2"),
        pytest.param(LYAPUNOV, _lyapunov_without_ito_drift, 4, id="lyapunov-no-ito-drift"),
        pytest.param(LYAPUNOV, _sampler_scale(lyapunov, "log_norm_path", "gamma", 1.5), 5,
                     id="lyapunov-gamma-1.5"),
        pytest.param(BURGERS, _burgers_without_diffusion, 5, id="burgers-no-diffusion"),
        pytest.param(WAVE, _wave_cross_factor_flipped, 5, id="wave-a21-sign"),
    ],
)
def test_mutant_is_caught(tmp_path, capsys, monkeypatch, argv, patch, caught):
    patch(monkeypatch)
    assert _exit_ones(argv, tmp_path, capsys) >= caught


@pytest.mark.parametrize(
    "argv, alarms", [(WAVE, 1), (HEAT, 1), (BURGERS, 0), (WIENER, 0), (LYAPUNOV, 0)],
    ids=["wave", "heat", "burgers", "wiener", "lyapunov"],
)
def test_unmutated_false_alarms(tmp_path, capsys, argv, alarms):
    assert _exit_ones(argv, tmp_path, capsys) <= alarms
