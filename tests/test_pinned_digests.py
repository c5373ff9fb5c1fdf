"""Every chaos scenario's digests, pinned: seed 7, two workers.

Per scenario, sha256 to 12 digits of the dataset, of the rollup (``-``
for a scenario without a collector), of the sorted-key stats JSON and
of the ledger JSON followed by the verification report's text: one
device world whoever collects, one hand-back of its rollups across
``fork``, and what the fault layer says it injected and proved.  A
change anywhere between the phone and the store that moves a byte of
any chaos world moves one of these, and so does a change to what an
oracle checks or prints.  The worlds come from the session's
``chaos_world`` cache, which the closed-loop tests read at one worker;
the one-worker build of every scenario must equal the two-worker one
byte for byte, and the ``tests`` CI matrix runs both under two
``PYTHONHASHSEED`` values.
"""

import hashlib
import json
import os

import pytest

from repro.faults import SCENARIOS, verify_scenario

PINNED = {
    "backend_crash": ("da09bff9d124", "6e6e281ff111", "bca3258e2393",
                      "55205ba75f89"),
    "bursty_lte": ("af40ac6e6542", "-", "76a0776d8969", "982d5bc059cc"),
    "coexistence": ("bddcd6312f4b", "86e21c7b2b24", "272e873d82fa",
                    "1f37117d67bc"),
    "collector_failover": ("22cfc43fbcd9", "f9b1573e8df7",
                           "dd610f1ce106", "314fb21310a4"),
    "dns_outage": ("ac246eacca4f", "-", "22141dc027f2", "149b8a6a0cab"),
    "handover_storm": ("fa03df59354e", "-", "37727205d55a",
                       "735882d2dcd0"),
    "multi_crash": ("1e474dca5782", "0227a3ced700", "e232b75a0b8c",
                    "d50f01347f88"),
    "network_partition": ("22cfc43fbcd9", "f9b1573e8df7",
                          "966c6acbf4b3", "125f1f99f16a"),
    "noisy_clock": ("1ed555ef26c7", "a90b0e0a76e0", "c87f6428da08",
                    "4f7befce6a8b"),
    "rebalance_storm": ("22cfc43fbcd9", "f9b1573e8df7", "a3fa51eb4192",
                        "dd7ad308e98b"),
    "server_brownout": ("9c8bdc561477", "-", "5c045b9dbeb6",
                        "289d708c3d47"),
    "transparent_proxy": ("65e8a680c41c", "ffcc92449bf3",
                          "67dafcce6974", "4148764c45c3"),
    "vpn_flap": ("cf136c9a2c33", "-", "366244916c77", "54496d351399"),
}


def _sha12(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def test_every_scenario_is_pinned():
    assert sorted(PINNED) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_scenario_digests(name, chaos_world):
    result = chaos_world(name, 7, 2)
    said = result.ledger.to_json() + "\n" + verify_scenario(result).summary()
    assert (result.digest()[:12],
            (result.rollup_digest() or "-")[:12],
            _sha12(json.dumps(result.stats, sort_keys=True)),
            _sha12(said)) == PINNED[name]


def _shards(result):
    found = {}
    for path in result.paths:
        with open(path, "rb") as handle:
            found[os.path.basename(path)] = handle.read()
    return found


def _rollup_json(result):
    """The rollups' JSON, meta included (their digest leaves it out)."""
    return None if result.rollups is None else result.rollups.to_json()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_worker_count_cannot_change_a_byte(name, chaos_world):
    serial, pooled = chaos_world(name, 7, 1), chaos_world(name, 7, 2)
    assert _shards(serial) == _shards(pooled)
    assert _rollup_json(serial) == _rollup_json(pooled)
    assert serial.stats == pooled.stats
    assert serial.ledger.to_json() == pooled.ledger.to_json()
