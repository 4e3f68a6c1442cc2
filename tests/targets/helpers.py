"""Shared helpers for the sharded-engine tests."""

from repro.net.packet import Packet
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
