"""Recorded report pins: the three report files of fixed runs must keep
their bytes.

Each case is a scenario text and a seed; its digest is the SHA-256 of
``report.json``, ``per_world.csv`` and ``trials.csv`` as ``eclc run``
writes them, joined by NUL bytes.  The cases are the bundled scenarios
at seeds 0-4 and generated coherence and accessibility chains.  After a
change that alters reports on purpose, print the new digests with

    PYTHONPATH=src python tests/test_report_pins.py

and replace only the entries that the change explains.
"""

from __future__ import annotations

import hashlib
import json
import random

from eclc import parse_scenario, run_scenario, scenarios
from eclc.sim import per_world_csv, report_to_json, trials_csv

import oracles

COHERENCE_PROPS = (
    "E",
    "E * Entangled(A,B)",
    "!A",
    "!(A * B)",
    "A & B",
    "!(A & B)",
    "<2.5>A",
    "<0>(A * B)",
    "A -o B",
    "~Junk",
    "Quantum(q)",
    "!Quantum(q) * E",
)

ACCESS_PROPS = ("Phi(a)", "A", "!A", "A * B", "A -o Phi(a)", "!(B -o Phi(a))", "C & Phi(a)", "~Phi(b)")
ACCESS_HEADS = ("Phi(a)", "!Phi(a)", "Phi(a) & A", "Phi(a) * A", "<1.5>Phi(a)")


def coherence_text(rng: random.Random) -> str:
    """A coherence chain with capacities 1-7, mixed energies, costs and
    alpha, banged, with and diamond props, and sometimes an edge sequent."""
    n = rng.randint(2, 5)
    kappas = sorted(rng.choice((0.0, 0.5, 1.0, 2.0, 3.5)) for _ in range(n))
    lines = [
        "scenario coherence",
        f"alpha = {rng.choice((0.25, 0.75, 1.5, 3.0))}",
        f"cost * = {rng.choice((0.0, 0.5, 1.0))}",
        f"cost A = {rng.choice((0.25, 1.0, 2.0))}",
    ]
    for i in range(n):
        energy = rng.choice((2.0, 12.0, 40.0, 150.0))
        lines.append(f"world w{i} {{ energy={energy}, kappa={kappas[i]}, lambda={rng.randint(1, 7)} }}")
    lines.extend(f"edge w{i} -> w{i + 1} {{ deltaE={rng.choice((0.0, 1.0, 5.0))} }}" for i in range(n - 1))
    lines.extend(f"prop w0 : {rng.choice(COHERENCE_PROPS)}" for _ in range(rng.randint(1, 10)))
    if rng.random() < 0.4:
        hop = rng.randrange(n - 1)
        goal = rng.choice(("A, B |- A * B", "!A |- A * A", "A & B |- B", "A |- B"))
        lines.append(f"sequent s w{hop} -> w{hop + 1} : {goal}")
    return "\n".join(lines) + "\n"


def accessibility_text(rng: random.Random) -> str:
    """An accessibility chain with capacities 1-7 and observers at the
    head, mid-chain and tail."""
    n = rng.randint(3, 6)
    lines = ["scenario accessibility", f"alpha = {rng.choice((0.25, 0.75, 1.5))}", "cost * = 1.0", "cost C = 0.5"]
    for w in range(n):
        energy, kappa = rng.choice((0.0, 1.0, 5.0)), rng.choice((0.0, 0.5, 1.0, 2.0))
        lines.append(f"world w{w} {{ energy={energy}, kappa={kappa}, lambda={rng.randint(1, 7)} }}")
    lines.extend(f"edge w{w} -> w{w + 1} {{ deltaE={rng.choice((0.0, 1.0, 6.0))} }}" for w in range(n - 1))
    lines.append(f"prop w0 : {rng.choice(ACCESS_HEADS)}")
    for w in range(n):
        lines.extend(f"prop w{w} : {rng.choice(ACCESS_PROPS)}" for _ in range(rng.randint(0, 3)))
    homes = [0, n // 2, n - 1] + [rng.randrange(n) for _ in range(rng.randint(0, 4))]
    lines.extend(f"observer o{i} home=w{h} horizon={rng.randint(0, 4)}" for i, h in enumerate(homes))
    return "\n".join(lines) + "\n"


def cases():
    """(name, scenario text, seed) for every pinned run."""
    for name in scenarios.NAMES:
        for seed in range(5):
            yield f"{name}-seed{seed}", scenarios.read(name), seed
    rng = random.Random(20261018)
    for i in range(24):
        yield f"coherence-gen{i:02d}", coherence_text(rng), i
    for i in range(12):
        yield f"accessibility-gen{i:02d}", accessibility_text(rng), i


def run(text: str, seed: int):
    return run_scenario(parse_scenario(text)._replace(seed=seed))


def digest(text: str, seed: int) -> str:
    report = run(text, seed)
    payload = "\0".join((report_to_json(report), per_world_csv(report), trials_csv(report)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


RECORDED = {
    "coherence-seed0": "6dbee940706f6fccab310843d8dc6cf36437890c441d1cb633d12c1f6186fb6d",
    "coherence-seed1": "a2714eb77fc82d8d87ea2ce4b33ae77e7d6296deb70a58e856b2507e35676e92",
    "coherence-seed2": "012b3470987144f1a5df50ff5fedbfffe5e315434a04c776c674faf4ecb3d2ce",
    "coherence-seed3": "e51ac48b4a9821bd4e3149e29160fe30d8e783b5d03a7b1df974de493a3a9b77",
    "coherence-seed4": "ed3f64d627b14d7a3c2a34a8445cd9bdfb6f31fbfed3b7abbf1e227804e78e2e",
    "reciprocity-seed0": "77a6a8a0a85e82671b7240e37c466e26982d5cc018db1003f98dd4895513bcf8",
    "reciprocity-seed1": "2460628bcabc029fe10e0de5f25db0a932fb36181070c2390aa8813a963fcfb5",
    "reciprocity-seed2": "5c3dab1f9f6535a6d1d10a4afdc3f5b749ff03ca02cc460f0f415af8f83d5ff5",
    "reciprocity-seed3": "e99bb1af369d01e26b86a195e1e0c1ce346eed207d57f3bd18b7e6b59a75ab5a",
    "reciprocity-seed4": "fba9155bb5f12386a63abcae6dc3559a353ed302ca87373fdc4ded3474f04f08",
    "accessibility-seed0": "23babd239ef434b4fde6adcddda81a9ffdee39a7681ecafc6892ed4d20529b39",
    "accessibility-seed1": "d0a4f6210281f78aa2d9ce1804508e22ea932f78497837732077231cc8e2397e",
    "accessibility-seed2": "d68940466be654328489a918017493ebfc1a32818d3bdc445755ef8deff866bb",
    "accessibility-seed3": "f7c987ee0d361744ff5a7641b0b459ebee9731b21ed2af2e0faa17974a5bc77d",
    "accessibility-seed4": "13e2ff77fcd8ac4ec14725a7de6108112639337ea3c5706653041bbce0673de4",
    "coherence-gen00": "84889cceb1158e9ca36c066076871e9e30194d0af7985d2fcb3f01f57a3c0538",
    "coherence-gen01": "83e7d6844d0a2d7ca5173c782690e5500082f2a8c07620029b5353eca69fc6f6",
    "coherence-gen02": "4caacd727475b8ae8d2620cc1f37cd7c13a2f3471f58dea6f4af693c55f0b43e",
    "coherence-gen03": "1c950eb3b2d0e8e5700741ee8e02b285ba3a0605d3c22835e93a2444d6936cc0",
    "coherence-gen04": "352ac4e1c947e04c35f2c11380b2150e06556505f8aa2238a92ba31bc71f24b1",
    "coherence-gen05": "d1e539d49bb9f8df6a8f57361969e25a6ebc7a8a4df765ee4b0e2cb5f949d085",
    "coherence-gen06": "06db9a53c1d13b7082ab10cfaf0c843c69728dd1eb6597f39c6d37522e95935b",
    "coherence-gen07": "1bb08544effec0138d7cfecf5bf46b88901f96591a829a09b3ccd9634cd86c3a",
    "coherence-gen08": "a425bc6defceaed173920ecb1b97157bc535b9d3bac5d259a2ffc526c3216cf8",
    "coherence-gen09": "426824617a4dca03408d120eab8419c409a27c12862539a948eb355a082e21b3",
    "coherence-gen10": "f8c024e3b26ae36ebe8d3e826a46e98c5dc9bea34aa6b8650c9fbcd375b629a5",
    "coherence-gen11": "e4e6249c0c8083a1c972071920813c5c465a3029724a50e3301cb63d892a5c3a",
    "coherence-gen12": "594d0c455d4f0b71427fc4ba7bb98c665733525223b4ae00cbcf84253edecbb6",
    "coherence-gen13": "dae561ae69c29da4097ef043f1ee5920e1aa1f67cfa68e9f4d77866cda37305a",
    "coherence-gen14": "1c0cf9d3eae2048e0ac8e4f57b194c7eabcdfc90063da90ce032f69f01d6ed7e",
    "coherence-gen15": "2a1a683878b0edb2f34484d60a81f0a29b2b737de630f5a67085c04ee7f2bfc0",
    "coherence-gen16": "36bce094d20c903be23307cc1c6028b5589ee89aaf4f240735a4f76a2bee1fef",
    "coherence-gen17": "947e5225c856f200fdf1b8668003df8f0a4a4613954c6aefde91fe501beaea4d",
    "coherence-gen18": "64c8bcf2d28aa2b8a947cb09f9f051c23608b64e56075cfc27b81735c9ed7deb",
    "coherence-gen19": "a4230ab597fc923ca0ed009681da749a1f2c281376cf828d827e9a05e65227b0",
    "coherence-gen20": "069505250e4bbc4af10cd708a42be89e9d4d1e49d68266b71aa380411f8cb9b0",
    "coherence-gen21": "31d424f178c0e59d5f708bed7028c08cc38b98bd47fa2b263242ee1f1512e221",
    "coherence-gen22": "75ff56111df071cbb75e72faa68d348c73dafd8e18476afd7f5717c7fec41a34",
    "coherence-gen23": "d3c22002c03910ea2e436f4be41048f33fbb5916cd006cf37e02d25e54f54a56",
    "accessibility-gen00": "22f1ed05acd76cb706de50174e34e8b1c9f29ba343e66a0cdc4cd670fd45e798",
    "accessibility-gen01": "bc0b42985c7393a3afd2de1bad4e7f6fda596f26158926b6fd8b6b9a3446eacc",
    "accessibility-gen02": "f2f29689023f8e7ec3f6958fef9f36eb564100e9fcc935923170923779bdeacf",
    "accessibility-gen03": "f8c90d397d9d13f9de00bd561a5793e5ac5c257c66d2a875d3e9d25c823af967",
    "accessibility-gen04": "aab2dcb8035fe25e499df67e530f3f7a9bd78cd5938b665d04831c89020c0a25",
    "accessibility-gen05": "4d57e64dcab5de77fda6635dfc49c03201a97e11a5b134c9bbdd4c1a8bb6ef6a",
    "accessibility-gen06": "90264c4b51f4423d001bd6ffacec8de369c3af398063131ab301d4661fed961c",
    "accessibility-gen07": "253eb4f136a82a2b99f6da2ca8f56e527c2183ac649772a8fb23052457253858",
    "accessibility-gen08": "7c71d17997ef3f08432a49fc8103cc6df941f71cde48c92bbf7f55b859b5d22b",
    "accessibility-gen09": "94a463156955bcddf559e4b73352f7ce5e164f53ea5ad77c3d7c2077fbde4199",
    "accessibility-gen10": "05e1b630c26112c21c22bff486134d84a57415923cdd7384e70a36b30da53d8a",
    "accessibility-gen11": "dacd9d5fd030338b49ad6c3f3ad0c1e9d8b8a1af0234e666efbed03333ec5166",
}


def test_reports_match_recorded_digests():
    got = {name: digest(text, seed) for name, text, seed in cases()}
    assert got == RECORDED


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def test_pinned_reports_are_strict_json():
    # RFC 8259 has no NaN or Infinity; a non-finite float is written null
    for name, text, seed in cases():
        json.loads(report_to_json(run(text, seed)), parse_constant=_reject)


def test_pinned_reports_match_the_reference_writer():
    for name, text, seed in cases():
        report = run(text, seed)
        assert report_to_json(report) == oracles.reference_report_json(report), name


if __name__ == "__main__":
    for name, text, seed in cases():
        print(f'    "{name}": "{digest(text, seed)}",')
