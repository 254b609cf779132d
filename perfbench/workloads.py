"""Workload generator: every input one benchmark run feeds the program, made from one seed.

``generate(workload, seed)`` returns a plain dict (the *spec*) holding the
run-config texts, the replica seed lists and the counts each operation must
produce.  It uses Python's own ``random`` so the same seed gives the same
spec whatever numpy version is installed, and it imports nothing from the
package under test.  Start points are the package's ``theta0 = seeded``
draws, so they follow from the generated replica seeds.

The quadratic workloads draw their replica seeds from fixed pools whose CSV
blocks are pinned by SHA-256 in ``pins.json`` (see ``pin.py``): each
replica's rows depend only on its own seed and the config, so any subset of
a pool can be checked against the pins.
"""

import random

WORKLOADS = ("quad_d10_replicas", "quad_d1m", "logistic_study", "selftest_oracle")

# Workloads run.py accepts but BENCHMARK.json does not declare.  On the
# reference machine a neighbour's load moves logistic_study's time by more
# than any calibration recipe follows (ten runs spread by 0.13 of their
# median, against 0.02 to 0.06 for the others), so it would fail its bound
# on a busier host; it stays runnable, with all its output checks.
UNDECLARED = ("logistic_study",)

# Every optimizer the package ships; the study runs all of them.
OPTIMIZERS = ("adaplus", "adam", "adamw", "nadam", "adabelief", "sgdm")

QUAD_D1M_DIM = 1 << 20

# Run shape of each pinned quadratic workload.  quad_d10_replicas is the
# shipped configs/quadratic_adaplus.cfg with eight replicas instead of three.
QUAD_SHAPES = {
    "quad_d10_replicas": {
        "dim": 10, "epochs": 10, "steps_per_epoch": 500, "log_every": 100, "replicas": 8, "pool": 256,
    },
    "quad_d1m": {
        "dim": QUAD_D1M_DIM, "epochs": 10, "steps_per_epoch": 2, "log_every": 5, "replicas": 1, "pool": 64,
    },
}

LOGISTIC_SHAPE = {"n_samples": 4000, "dim": 64, "epochs": 4, "steps_per_epoch": 10, "replicas": 2}


def replica_pool(workload: str) -> list[int]:
    """Replica seeds whose CSV blocks are pinned for a quadratic workload."""
    return list(range(1, QUAD_SHAPES[workload]["pool"] + 1))


def quad_config(workload: str, seeds) -> str:
    shape = QUAD_SHAPES[workload]
    return (
        "problem = quadratic\n"
        f"problem.dim = {shape['dim']}\n"
        "problem.condition_number = 100\n"
        "optimizer = adaplus\n"
        f"epochs = {shape['epochs']}\n"
        f"steps_per_epoch = {shape['steps_per_epoch']}\n"
        f"seeds = {','.join(str(s) for s in seeds)}\n"
        f"log_every = {shape['log_every']}\n"
        "milestones = 6,8\n"
    )


def logistic_config(optimizer: str, data_seed: int, noise_seed: int, seeds) -> str:
    shape = LOGISTIC_SHAPE
    return (
        "problem = logistic_regression_synthetic\n"
        f"problem.n_samples = {shape['n_samples']}\n"
        f"problem.dim = {shape['dim']}\n"
        "problem.margin = 0.5\n"
        f"problem.seed = {data_seed}\n"
        f"optimizer = {optimizer}\n"
        "lr = 0.01\n"
        f"epochs = {shape['epochs']}\n"
        f"steps_per_epoch = {shape['steps_per_epoch']}\n"
        f"seeds = {','.join(str(s) for s in seeds)}\n"
        "log_every = 1\n"
        "noise = minibatch_subset\n"
        "noise.scale = 0.1\n"
        f"noise.seed = {noise_seed}\n"
    )


def logged_rows(total_steps: int, log_every: int) -> int:
    """Rows one replica logs: every ``log_every``-th step plus the final one."""
    return total_steps // log_every + (0 if total_steps % log_every == 0 else 1)


def generate(workload: str, seed: int) -> dict:
    """The spec of one run of ``workload``; a pure function of ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    spec = {"workload": workload, "seed": seed}

    if workload in QUAD_SHAPES:
        shape = QUAD_SHAPES[workload]
        seeds = rng.sample(replica_pool(workload), shape["replicas"])
        total = shape["epochs"] * shape["steps_per_epoch"]
        spec.update(
            kind="run",
            configs={workload: quad_config(workload, seeds)},
            seeds=sorted(seeds),
            steps=total * len(seeds),
            log_rows=logged_rows(total, shape["log_every"]) * len(seeds),
            runs=1,
        )
    elif workload == "logistic_study":
        shape = LOGISTIC_SHAPE
        data_seed, noise_seed = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        seeds = rng.sample(range(1, 10**6), shape["replicas"])
        total = shape["epochs"] * shape["steps_per_epoch"]
        spec.update(
            kind="study",
            configs={opt: logistic_config(opt, data_seed, noise_seed, seeds) for opt in OPTIMIZERS},
            seeds=sorted(seeds),
            steps=total * len(seeds) * len(OPTIMIZERS),
            log_rows=total * len(seeds) * len(OPTIMIZERS),
            runs=len(OPTIMIZERS),
        )
    else:
        # the selftest's streams are fixed inside the package; its step count
        # is measured, not implied by a config
        spec.update(kind="selftest", configs={}, seeds=[], steps=None, log_rows=0, runs=0)
    return spec
