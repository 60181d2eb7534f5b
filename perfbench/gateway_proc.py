"""The gateway process: one ``repro.gateway.Gateway`` and its shard fleet.

Usage: ``python3 perfbench/gateway_proc.py CONFIG.json``.  Starts the
fleet, prints one JSON line ``{"port": ...}`` on stdout once it serves,
and stops the fleet when its standard input closes.

Untraced, the fleet is built exactly as a user builds it
(``Gateway(store_dir=..., service_kwargs=...)``).  Traced, every layer is
wrapped (:func:`layers.install`) before the shards fork, and a shard
factory hands each :class:`~repro.gateway.shard.ProcessShard` a
:class:`~repro.obs.tracer.Tracer` with its own sink through
``service_kwargs``, so per-request traces land in ``trace_dir``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys


async def serve(cfg) -> None:
    from repro.gateway.core import Gateway

    service_kwargs = {"workers": cfg["workers"], "cache_size": cfg["cache_size"]}
    kwargs = dict(shards=cfg["shards"], service_kwargs=service_kwargs)
    if cfg["traced"]:
        import layers
        from repro.gateway.shard import ProcessShard
        from repro.obs.tracer import Tracer

        layers.install(layers.EventSink(cfg["trace_dir"], "proc"))

        def shard_factory(index: int) -> ProcessShard:
            skw = dict(service_kwargs)
            skw["store_path"] = os.path.join(cfg["store_root"], f"shard-{index:02d}")
            sink = layers.EventSink(cfg["trace_dir"], f"shard-{index:02d}")
            skw["tracer"] = Tracer(sinks=[sink])
            return ProcessShard(service_kwargs=skw)

        kwargs["shard_factory"] = shard_factory
    else:
        kwargs["store_dir"] = cfg["store_root"]
    gateway = Gateway(**kwargs)
    await gateway.start()
    try:
        print(json.dumps({"port": gateway.port}), flush=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sys.stdin.read)
    finally:
        await gateway.stop()
        if cfg["traced"]:
            import layers

            layers.flush_all()


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    asyncio.run(serve(cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
