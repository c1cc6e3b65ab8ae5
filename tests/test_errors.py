"""The two scalar-argument guards at every entry point that takes a count or a
positive real: a bad value raises the site's typed error, never a TypeError,
and is never read as another value (True as 1, 1.5 as seed 1)."""

import argparse
import math
import tracemalloc

import numpy as np
import pytest

from smoothgan.cli import cmd_sweep
from smoothgan.discriminators import phi_minimax, phi_ns
from smoothgan.divergences import KernelSpec
from smoothgan.envelopes import GridFn, grid_axes, moreau, pasch_hausdorff
from smoothgan.errors import (ConfigError, DimensionMismatch, GridMismatch, NonPositiveAlpha,
                              NonPositiveBeta, PreconditionViolated, ProblemTooLarge, need_count,
                              need_positive)
from smoothgan.measures import BoxDomain, make_discrete, sample_target
from smoothgan.nnsmooth import (empirical_lipschitz, empirical_smoothness, power_iteration,
                                random_mlp)
from smoothgan.rkhs import EmbeddingFn, truncated_series_norm
from smoothgan.rng import child_seed
from smoothgan.smoothness import (OracleFamily, build_report, estimate_alpha, estimate_beta1,
                                  estimate_beta2)
from smoothgan.trainer import GanLoopConfig, TrainConfig

KC = KernelSpec.critical()
DOM = BoxDomain(np.array([-1.0]), np.array([1.0]))
F = GridFn(DOM, 0.5, np.abs(np.linspace(-1.0, 1.0, 5)))
TARGET = sample_target("ring", 8, 1)
EMB = EmbeddingFn(np.array([0.0]), np.array([1.0]), KC)
FAMILY = OracleFamily("mmd", dim=1, kernel=KC)
NET = random_mlp(1, 4, 2, "elu", 0)


def _train(**kw):
    return TrainConfig(**{"target": TARGET, "kernel": KC, "n_particles": 8, "n_steps": 3,
                          "seed": 1, **kw})


def _gan(**kw):
    return GanLoopConfig(**{"generator_init": TARGET.points.copy(), "target": TARGET, **kw})


def _sweep(seeds):
    return cmd_sweep(argparse.Namespace(ratios="1", seeds=seeds))


# (label, call with the value under test, error, least for a count or None for a positive real)
SITES = [
    ("grid_axes step", lambda v: grid_axes(DOM, v), GridMismatch, None),
    ("pasch_hausdorff alpha", lambda v: pasch_hausdorff(F, v), NonPositiveAlpha, None),
    ("moreau beta", lambda v: moreau(F, v), NonPositiveBeta, None),
    ("KernelSpec sigma_sq", lambda v: KernelSpec(sigma_sq=v), PreconditionViolated, None),
    ("random_mlp input_dim", lambda v: random_mlp(v, 2, 2, "elu", 0), PreconditionViolated, 1),
    ("random_mlp width", lambda v: random_mlp(2, v, 2, "elu", 0), PreconditionViolated, 1),
    ("random_mlp depth", lambda v: random_mlp(2, 2, v, "elu", 0), PreconditionViolated, 1),
    ("random_mlp seed", lambda v: random_mlp(2, 2, 2, "elu", v), PreconditionViolated, 0),
    ("power_iteration iters", lambda v: power_iteration(np.eye(2), iters=v), ConfigError, 1),
    ("series order", lambda v: truncated_series_norm(EMB, v, -8.0, 8.0), PreconditionViolated, 0),
    ("series quad_step", lambda v: truncated_series_norm(EMB, 3, -8.0, 8.0, v),
     PreconditionViolated, None),
    ("child_seed seed", lambda v: child_seed(v, 1), PreconditionViolated, 0),
    ("build_report n_trials", lambda v: build_report(FAMILY, DOM, v, 11, 0),
     PreconditionViolated, 1),
    ("build_report grid_pts", lambda v: build_report(FAMILY, DOM, 2, v, 0),
     PreconditionViolated, 2),
    ("estimate_alpha n_measures", lambda v: estimate_alpha(FAMILY, DOM, v, 11, 0),
     PreconditionViolated, 1),
    ("estimate_beta1 n_measures", lambda v: estimate_beta1(FAMILY, DOM, v, 8, 0),
     PreconditionViolated, 1),
    ("estimate_beta1 n_point_pairs", lambda v: estimate_beta1(FAMILY, DOM, 2, v, 0),
     PreconditionViolated, 1),
    ("estimate_beta2 n_measure_pairs", lambda v: estimate_beta2(FAMILY, DOM, v, 11, 0),
     PreconditionViolated, 1),
    ("TrainConfig lr_ratio", lambda v: _train(lr_ratio=v), ConfigError, None),
    ("TrainConfig n_particles", lambda v: _train(n_particles=v), ConfigError, 1),
    ("TrainConfig n_steps", lambda v: _train(n_steps=v), ConfigError, 1),
    ("TrainConfig seed", lambda v: _train(seed=v), ConfigError, 0),
    ("GanLoopConfig depth", lambda v: _gan(depth=v), ConfigError, 1),
    ("GanLoopConfig width", lambda v: _gan(width=v), ConfigError, 1),
    ("GanLoopConfig n_steps", lambda v: _gan(n_steps=v), ConfigError, 1),
    ("GanLoopConfig disc_steps_per_gen", lambda v: _gan(disc_steps_per_gen=v), ConfigError, 1),
    ("GanLoopConfig seed", lambda v: _gan(seed=v), ConfigError, 0),
    ("GanLoopConfig final_scale", lambda v: _gan(final_scale=v), ConfigError, None),
    ("GanLoopConfig beta2", lambda v: _gan(beta2=v), ConfigError, None),
    ("GanLoopConfig lr_disc", lambda v: _gan(lr_disc=v), ConfigError, None),
    ("GanLoopConfig lr_gen", lambda v: _gan(lr_gen=v), ConfigError, None),
    ("sample_target n", lambda v: sample_target("ring", v, 0), ConfigError, 1),
    ("sample_target seed", lambda v: sample_target("ring", 8, v), ConfigError, 0),
    ("sweep --seeds", _sweep, ConfigError, 1),
    ("empirical_lipschitz n_pairs", lambda v: empirical_lipschitz(NET, DOM, v, 0),
     PreconditionViolated, 1),
    ("empirical_smoothness n_pairs", lambda v: empirical_smoothness(NET, DOM, v, 0),
     PreconditionViolated, 1),
    ("OracleFamily dim", lambda v: OracleFamily("w1", dim=v), PreconditionViolated, 1),
    ("BoxDomain.unit dim", BoxDomain.unit, DimensionMismatch, 1),
]


def _bad_values(least):
    """True, nan, inf, then 0 for a positive real, or least - 1 and a float for a count."""
    return [True, math.nan, math.inf, 0.0 if least is None else least - 1] + (
        [] if least is None else [least + 1.5])


_CASES = [(label, call, error, value) for label, call, error, least in SITES
          for value in _bad_values(least)]


@pytest.mark.parametrize("label, call, error, value", _CASES,
                         ids=[f"{c[0]}={c[3]!r}" for c in _CASES])
def test_guarded_entry_point_rejects(label, call, error, value):
    with pytest.raises(error) as info:
        call(value)
    assert not isinstance(info.value, TypeError)


@pytest.mark.parametrize("value", [1, np.int64(3), 2 ** 70])
def test_need_count_takes_every_integer(value):
    need_count(value, "n", 1, ConfigError)


@pytest.mark.parametrize("value", [1e-300, 0.5, np.float64(2.0), 7, 1e308])
def test_need_positive_takes_every_finite_positive_real(value):
    need_positive(value, "x", ConfigError)


@pytest.mark.parametrize("value", [np.True_, "3", None, 1 + 0j])
def test_guards_reject_what_is_not_a_real(value):
    with pytest.raises(ConfigError, match="got"):
        need_count(value, "n", 0, ConfigError)
    with pytest.raises(ConfigError, match="got"):
        need_positive(value, "x", ConfigError)


@pytest.mark.parametrize("phi", [phi_minimax, phi_ns])
def test_density_ratio_query_over_the_cap_raises_before_allocating(phi):
    # 10^4 2-D queries against 2 x 2000 atoms would form 8e7 coordinate differences, 640 MB
    rng = np.random.default_rng(5)
    mu = make_discrete(rng.uniform(-1, 1, (2000, 2)), np.full(2000, 1 / 2000))
    mu0 = make_discrete(rng.uniform(-1, 1, (2000, 2)), np.full(2000, 1 / 2000))
    x = np.tile(mu.points, (5, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLarge, match="exceed"):
            phi(mu, mu0, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
