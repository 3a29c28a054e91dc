"""Golden pins: literal end-state digests of four canonical deployments.

Every other determinism test in the suite is *relative* (same seed twice,
one path against another), so a change that shifts behaviour in both arms
passes them all.  These pins are absolute: each canonical configuration
must reproduce, byte for byte,

* every daemon's chain tip and UTXO-set digest (folded into one digest,
  with the first daemon of each convergence group pinned in the clear),
* the ``RunReport`` text (exchange counts, simulated duration, height,
  latency summary and per-leg breakdown),
* the sha256 of the exported JSONL trace (spans plus registry snapshot).

A pin may only be re-baselined together with a CHANGES.md line that says
why the simulated behaviour was meant to change.  Print fresh values with
``PYTHONPATH=src python -m tests.integration.test_golden_pins``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos.faults import FaultPlan
from repro.chaos.injector import ChaosInjector
from repro.chaos.verify import utxo_digest
from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import LightConfig, RegionTopology


def _crash_plan(network: BcWANNetwork, seed: int) -> FaultPlan:
    """Crash the last gateway two block intervals in, with state loss,
    and restart it two intervals later (it re-syncs from its peers)."""
    config = network.config
    at = 2 * config.block_interval
    return FaultPlan(seed=seed).crash(config.site_names[-1], at=at,
                                      restart_at=at + 2 * config.block_interval)


#: name -> (NetworkConfig kwargs, exchanges, fault plan builder or None).
CONFIGS = {
    "fig5-default": (dict(seed=5), 10, None),
    "regions-2x2": (dict(seed=6, num_gateways=4, sensors_per_gateway=3,
                         topology=RegionTopology(regions=2,
                                                 checkpoint_interval=30.0)),
                    10, None),
    "lossy-sync-crash": (dict(seed=7, num_gateways=4, sensors_per_gateway=3,
                              wan_loss_rate=0.05, sync_interval=10.0),
                         10, _crash_plan),
    "light-compact": (dict(seed=8, num_gateways=3, sensors_per_gateway=3,
                           exchange_interval=20.0,
                           light=LightConfig(device_class="light",
                                             compact_blocks=True)),
                      8, None),
}

# Recorded before the shared verdict memo, cached transaction bytes and
# per-message wire sizing landed; those host-side caches left every pin
# unchanged.
GOLDEN = {
    "fig5-default": {
        "tips": {
            "chain": ("master:11:"
                "bf9e26c14276a04d1c94cdca423fcf252748ea821378beb2e6b795507c8f78bf:"
                "adba61c15ebdd2a59574fe5dfcea5ce2cb31315239f7b8843930ea3bfcf4c0f0"),
        },
        "state": "e25fe1a3037dba1167bf5f1458aa82b3eafcf9c9ab6bf175972601991843b439",
        "report": (
            "exchanges: 10 launched, 6 completed, 4 failed, 0 pending\n"
            "simulated duration: 45.0 s, chain height: 11\n"
            "latency: n=6 mean=1.311s median=1.310s p95=1.441s p99=1.459s max=1.464s\n"
            "per-leg breakdown (from spans):\n"
            "  uplink       n=6 mean=0.521s median=0.517s p95=0.554s p99=0.558s max=0.559s\n"
            "  publication  n=6 mean=0.190s median=0.188s p95=0.216s p99=0.218s max=0.218s\n"
            "  payment      n=6 mean=0.575s median=0.581s p95=0.655s p99=0.667s max=0.670s\n"
            "  decryption   n=6 mean=0.026s median=0.027s p95=0.028s p99=0.028s max=0.028s\n"
            "  total        n=6 mean=1.311s median=1.310s p95=1.441s p99=1.459s max=1.464s"
        ),
        "trace": "e98757aae5f7c00f18fb86f51a1b2bf8c65046e0a5d902f56a5e587c1b209984",
    },
    "regions-2x2": {
        "tips": {
            "anchor": ("anchor:8:"
                "d0cafeaad6b4fe41f056304e7fb065551c0ec56ed7b340484e9d29a01a231f5c:"
                "9cfd609a0836d07019e228d0e96461846a8ab2af3bfabbfa5f032ba49904ad0d"),
            "region-0": ("master-r0:11:"
                "16d8843f9facdaf46e09726c85529ab4d0de8e5067d41412db86709412aa9059:"
                "c96bcb6982b6bc72bd61a73dbd41c7ba6276fc149dc5d27520c6fd880f617a7d"),
            "region-1": ("master-r1:11:"
                "3e4bfc04e4df10ecb2e0f87d2b319af3209c0bd454a24daa62ecbd724df6c69c:"
                "ca5f809f79ea9926ac95f70ea3697a9d6ebd6aec467725d71fe18fed9dbeef72"),
        },
        "state": "47bcf9dd61e582dcd69b914c8d1b69c54e64c2b3ee16f3620b4ab9f3e9a9fa1e",
        "report": (
            "exchanges: 10 launched, 10 completed, 0 failed, 0 pending\n"
            "simulated duration: 60.0 s, chain height: 8\n"
            "latency: n=10 mean=1.341s median=1.196s p95=2.079s p99=2.319s max=2.379s\n"
            "per-leg breakdown (from spans):\n"
            "  uplink       n=10 mean=0.622s median=0.521s p95=1.088s p99=1.442s max=1.530s\n"
            "  publication  n=10 mean=0.163s median=0.144s p95=0.341s p99=0.401s max=0.416s\n"
            "  payment      n=10 mean=0.533s median=0.526s p95=0.732s p99=0.741s max=0.743s\n"
            "  decryption   n=10 mean=0.024s median=0.024s p95=0.027s p99=0.028s max=0.028s\n"
            "  total        n=10 mean=1.341s median=1.196s p95=2.079s p99=2.319s max=2.379s"
        ),
        "trace": "a0697948e086fc1c45808a7e72bb9ee2c72154cd2f384f56b32d9908711b93ea",
    },
    "lossy-sync-crash": {
        "tips": {
            "chain": ("master:20:"
                "78db4dd7aebb086550116c73c5087da9304a8de414725844b44218ad44f75294:"
                "f0b73eb38f172ef16a8b6977cc517245a778c6b5a4a2389c06b66b3ac48f2d34"),
        },
        "state": "6c50c91bbf91d0720b5555cfa0e414453bd92be66b25d16da9db499a230a3558",
        "report": (
            "exchanges: 10 launched, 6 completed, 4 failed, 0 pending\n"
            "simulated duration: 195.0 s, chain height: 20\n"
            "latency: n=6 mean=1.241s median=1.201s p95=1.404s p99=1.447s max=1.458s\n"
            "per-leg breakdown (from spans):\n"
            "  uplink       n=10 mean=0.517s median=0.503s p95=0.564s p99=0.579s max=0.583s\n"
            "  publication  n=6 mean=0.172s median=0.157s p95=0.248s p99=0.269s max=0.274s\n"
            "  payment      n=6 mean=0.524s median=0.499s p95=0.644s p99=0.670s max=0.677s\n"
            "  decryption   n=6 mean=0.022s median=0.022s p95=0.027s p99=0.029s max=0.029s\n"
            "  total        n=6 mean=1.241s median=1.201s p95=1.404s p99=1.447s max=1.458s"
        ),
        "trace": "523a9dde7eb12443b8fa28649f9b0c715b50b0b76ddc9e5d1b7663ed82c96087",
    },
    "light-compact": {
        "tips": {
            "chain": ("master:10:"
                "f4a74121fde1ee9994f3386f354ac172727da60340ae3706cd91c6d0470bb0e2:"
                "0d6a68a11dbab38555e71aee13a91848853c71076c83097a2333b4954baccfd9"),
        },
        "state": "875c06130f5fefa8bf253b67c7a322f756d6efb36153656290b0a36eb33a7f38",
        "report": (
            "exchanges: 8 launched, 8 completed, 0 failed, 0 pending\n"
            "simulated duration: 15.0 s, chain height: 10\n"
            "latency: n=8 mean=1.310s median=1.331s p95=1.411s p99=1.412s max=1.412s\n"
            "per-leg breakdown (from spans):\n"
            "  uplink       n=8 mean=0.529s median=0.526s p95=0.555s p99=0.559s max=0.560s\n"
            "  publication  n=8 mean=0.151s median=0.141s p95=0.209s p99=0.218s max=0.221s\n"
            "  payment      n=8 mean=0.604s median=0.591s p95=0.734s p99=0.752s max=0.756s\n"
            "  decryption   n=8 mean=0.026s median=0.027s p95=0.031s p99=0.031s max=0.031s\n"
            "  total        n=8 mean=1.310s median=1.331s p95=1.411s p99=1.412s max=1.412s"
        ),
        "trace": "4ef9ba1b7e5038405bd6691d8053304b5b09f601d87512ca1476bfb52d255fe0",
    },
}


def run_pins(name: str) -> dict:
    """Run one canonical configuration and return its pins."""
    kwargs, exchanges, plan_for = CONFIGS[name]
    network = BcWANNetwork(NetworkConfig(tracing=True, **kwargs))
    if plan_for is not None:
        ChaosInjector(network.sim, network.wan,
                      plan_for(network, kwargs["seed"]),
                      daemons=network.all_daemons(),
                      registry=network.registry).install()
    report = network.run(num_exchanges=exchanges)
    state = hashlib.sha256()
    tips = {}
    for group, daemons in network.convergence_groups().items():
        for index, (host, daemon) in enumerate(sorted(daemons.items())):
            chain = daemon.node.chain
            line = (f"{host}:{chain.height}:{chain.tip.hash.hex()}:"
                    f"{utxo_digest(chain)}")
            state.update(line.encode() + b"\n")
            if index == 0:
                tips[group] = line
    pins = {
        "tips": tips,
        "state": state.hexdigest(),
        "report": report.format(),
        "trace": hashlib.sha256(network.export_trace().encode()).hexdigest(),
    }
    network.close()
    return pins


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_pins(name):
    assert run_pins(name) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    for config_name in CONFIGS:
        print(f"    {config_name!r}: ", end="")
        pprint.pprint(run_pins(config_name), width=72, sort_dicts=True)
