"""Shared helpers for the executor and sharded-engine tests."""

import os
import sys
from contextlib import contextmanager
from unittest.mock import patch

from repro.net.packet import Packet
from repro.targets import codegen
from repro.targets.backends import EXEC_BACKENDS, executor_class
from repro.targets.engine import (
    EngineConfig,
    _merge_blocks,
    assign_shard,
    shard_seed,
)
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    consume,
    iter_stream_bytes,
)


#: A columnwise lane floor no batch reaches: every batch takes the lane loop.
LANE_LOOP = sys.maxsize


def _first_name_per_executor() -> tuple:
    first = {}
    for name in EXEC_BACKENDS:
        first.setdefault(executor_class(name), name)
    return tuple(first.values())


#: The first backend name of each executor class, in ``EXEC_BACKENDS``
#: order (``interp``, ``codegen``): a matrix over these runs every
#: executor once, and no alias (``compiled``, ``vector``) reruns one.
EXECUTORS = _first_name_per_executor()


@contextmanager
def columnwise_floor(lanes: int):
    """Codegen's columnwise lane floor at ``lanes`` inside the block: 1
    runs every batch columnwise where the program can, ``LANE_LOOP``
    none."""
    with patch.object(codegen, "_COLUMNWISE_MIN_LANES", lanes):
        yield


def oracle_run(config: SoakConfig, program: str, engine: EngineConfig) -> dict:
    """What a pool run must produce, computed without any process, ring
    or supervisor: per shard, a fresh seeded switch consumes the stream
    filtered by ``assign_shard`` through the same ``soak.consume`` loop, and
    ``_merge_blocks`` folds the shard blocks.  Pool runs are compared to
    this (merged and per-shard digests, counts) instead of to a second
    multi-process transport."""
    composed = compose_program(config, program)
    workers, policy = engine.workers, engine.shard_policy
    shards = []
    for shard in range(workers):
        switch = build_switch(
            config, program, composed,
            fault_seed=shard_seed(config.seed, program, shard),
        )
        stream = (
            (index, Packet(data), in_port)
            for index, data, in_port in iter_stream_bytes(
                config, program, NUM_PORTS
            )
            if assign_shard(index, data, workers, policy) == shard
        )
        block = consume(switch, stream, batch_lanes=config.batch_lanes)
        block["shard"] = shard
        shards.append(block)
    return _merge_blocks(program, config, engine, shards, wall_s=0.0)


def run_sharded(config: SoakConfig, program: str, engine: EngineConfig,
                telemetry=None) -> dict:
    """Soak one program on a one-shot pool: open it, submit, close."""
    from repro.targets.pool import WorkerPool

    with WorkerPool(engine) as pool:
        return pool.submit(config, program, telemetry=telemetry)


def assert_matches_oracle(block: dict, oracle: dict) -> None:
    """Merged digest, per-shard digests and every count agree."""
    assert block["digest"] == oracle["digest"]
    for key in ("packets", "emits", "drops", "units", "killed", "verdicts",
                "drops_by_reason", "fault_trips"):
        assert block[key] == oracle[key], key
    assert len(block["shards"]) == len(oracle["shards"])
    for got, want in zip(block["shards"], oracle["shards"]):
        assert got["digest"] == want["digest"], got["shard"]
        assert got["packets"] == want["packets"], got["shard"]


def sabotage_shard0(monkeypatch, how: str) -> None:
    """Make shard 0's worker fail as it builds its switch: raise
    ``RuntimeError`` (``"error"``), raise ``KeyboardInterrupt``
    (``"interrupt"``) or exit with status 17 (``"exit"``).  Workers
    fork after the patch, so every incarnation of shard 0 inherits it;
    the other shards run normally."""
    from repro.targets import pool

    build_switch = pool.build_switch

    def sabotaged(config, program, composed, fault_seed=None):
        if str(fault_seed).endswith(":shard0"):
            if how == "exit":
                os._exit(17)
            if how == "interrupt":
                raise KeyboardInterrupt
            raise RuntimeError("sabotaged worker (test hook)")
        return build_switch(config, program, composed, fault_seed)

    monkeypatch.setattr(pool, "build_switch", sabotaged)
