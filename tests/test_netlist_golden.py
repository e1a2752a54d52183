"""Golden netlist digests and a reference check of compute_depth.

GOLDEN pins sha256(emit_netlist(synth(...))) for every applicable variant,
output form and ladder style on every catalog modulus of each size in
SIZES. The digests were recorded from the unoptimized builders; a change to
the order or content of any emitted gate fails here, so speedups of the
compile path must reproduce the netlists byte for byte.

`reference_depth` is the plain ASAP formulation (`1 + max(level[w] for w in
ops)` per gate) kept as the oracle for `compute_depth` and `asap_layers`.
"""

import hashlib
import random

import pytest

from gf2kq.catalog import catalog_entries
from gf2kq.circuit import (
    CCZ,
    CNOT,
    TOFFOLI,
    H,
    X,
    Circuit,
    Gate,
    RegisterLayout,
    asap_layers,
    compute_depth,
)
from gf2kq.netlist import emit_netlist
from gf2kq.simulate import to_toffoli_form
from gf2kq.synth import SynthesisOptions, equally_spaced_split, synth, trinomial_split

SIZES = (*range(2, 17), 33, 64, 127, 128)

KINDS = (CNOT, CCZ, TOFFOLI, H, X)


def golden_cases(n):
    """(family, variant, form, style, modulus) for each distinct catalog modulus of degree n.

    Compact and linear-depth ignore the ladder style; baseline and log-depth
    use it only on trinomial and equally spaced moduli.
    """
    seen = set()
    for entry in catalog_entries(n):
        p = entry.polynomial
        if p in seen:
            continue
        seen.add(p)
        family = entry.family + ("-pinned" if entry.pinned else "")
        structured = trinomial_split(p) is not None or equally_spaced_split(p) is not None
        yield family, "compact", "ccz_form", "prefix_ancilla", p
        yield family, "compact", "toffoli_form", "prefix_ancilla", p
        yield family, "linear_depth", "ccz_form", "prefix_ancilla", p
        for style in ("sequential", "prefix_ancilla") if structured else ("prefix_ancilla",):
            yield family, "baseline", "ccz_form", style, p
            yield family, "baseline", "toffoli_form", style, p
            if structured:
                yield family, "log_depth", "ccz_form", style, p


def reference_depth(circuit):
    """(depth, toffoli_depth, counts, layers) by the plain ASAP formulation."""
    level = [0] * circuit.wire_count
    tlevel = [0] * circuit.wire_count
    depth = tdepth = 0
    counts = {k: 0 for k in KINDS}
    layers = []
    for g in circuit.gates:
        counts[g.kind] += 1
        t = 1 + max(level[w] for w in g.operands)
        tt = (1 if g.kind in (CCZ, TOFFOLI) else 0) + max(tlevel[w] for w in g.operands)
        for w in g.operands:
            level[w] = t
            tlevel[w] = tt
        depth = max(depth, t)
        tdepth = max(tdepth, tt)
        while len(layers) < t:
            layers.append([])
        layers[t - 1].append(g)
    return depth, tdepth, counts, layers


def _assert_depth_matches(circuit, full_layers=True):
    depth, tdepth, counts, layers = reference_depth(circuit)
    rep = compute_depth(circuit)
    assert (rep.depth, rep.toffoli_depth, rep.counts) == (depth, tdepth, counts)
    got = asap_layers(circuit)
    assert len(got) == len(layers) == depth
    if full_layers:
        assert got == layers


@pytest.mark.parametrize("n", SIZES)
def test_golden_netlists_and_depth(n):
    mismatched = []
    for family, variant, form, style, p in golden_cases(n):
        key = (n, family, variant, form, style)
        circ = synth(SynthesisOptions(variant, p, form, style))
        digest = hashlib.sha256(emit_netlist(circ).encode()).hexdigest()
        if GOLDEN.get(key) != digest:
            mismatched.append(key)
        _assert_depth_matches(circ, full_layers=n <= 16)
    assert mismatched == []
    assert sum(1 for key in GOLDEN if key[0] == n) == len(list(golden_cases(n)))


def _random_circuit(rng, n, ancillas, size):
    lay = RegisterLayout(n=n, ancillas=ancillas)
    wires = range(lay.total_wires)
    gates = []
    for _ in range(size):
        kind = rng.choice(KINDS)
        if kind == CNOT:
            gates.append(Gate.cnot(*rng.sample(wires, 2)))
        elif kind == CCZ:
            gates.append(Gate.ccz(*rng.sample(wires, 3)))
        elif kind == TOFFOLI:
            gates.append(Gate.toffoli(*rng.sample(wires, 3)))
        else:
            gates.append(Gate(kind, (rng.choice(wires),)))
    return Circuit(lay, gates)


def test_compute_depth_matches_reference_on_random_circuits():
    rng = random.Random(2024)
    for _ in range(200):
        circ = _random_circuit(rng, rng.randint(1, 6), rng.randint(0, 4), rng.randint(0, 80))
        _assert_depth_matches(circ)
    _assert_depth_matches(Circuit(RegisterLayout(n=1)))


GOLDEN = {
    (2, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "046acbc138c45c2d0881f63409314f53ed31d54883c74b31b3105d7063b9eb67",
    (2, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "04f1ec2ba969e18e87d76c2be8e34d03decbdc690eb21e9f49fd7dbfd43a2e65",
    (2, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "241c0556348c5e5f3c48c6a7b25181ab33a01e0236d4f4c519150a70e6d47fd6",
    (2, "generic", "baseline", "ccz_form", "sequential"):
        "b20d9480cf1499737910582406a8e15b475b0e8d5a3824e03a627245c3207e51",
    (2, "generic", "baseline", "toffoli_form", "sequential"):
        "b8623f08bcf2a47561c9842fc39484a4e96b713830e6495f5adc9f8c2049ec3c",
    (2, "generic", "log_depth", "ccz_form", "sequential"):
        "1c8ae6a4db675b595f032ffae34330b3e9273652c55b8a9c076f5c72f5f1513a",
    (2, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "b20d9480cf1499737910582406a8e15b475b0e8d5a3824e03a627245c3207e51",
    (2, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "b8623f08bcf2a47561c9842fc39484a4e96b713830e6495f5adc9f8c2049ec3c",
    (2, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "1c8ae6a4db675b595f032ffae34330b3e9273652c55b8a9c076f5c72f5f1513a",
    (3, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "2f91a674192913503a2da01dc1274a9e5c673006d0d6f22223db4d6a356632cb",
    (3, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "f3b667b799a98b0333c543c28e0da7dcefe6f43df5a1593c560d9b81ef129a56",
    (3, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "fdba186bbde7b683128195d8d8da0a03cd249103c4e0d2e2f3cce1f84edbef1b",
    (3, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "3067ac3b896bc5b277480db139f997f7b90eee37a9bcbbf7d3f434b4ba565ba5",
    (3, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "e0bf459ef61316ded124c0ded8eef9d529dbadb5a78c99e0c920fa407cea5f60",
    (3, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "40edc2d20d86eba95b21813615b04f605ec46f06cc33b10a62edc160834d734d",
    (3, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "5125360184f5b5e9a34aff3daac231f62a6000dff2ce671d07b434d68a7db139",
    (3, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "344ef8b67e151f402b451c40aa831da83ff5de873724924984eebe71154dcbb7",
    (3, "trinomial", "baseline", "ccz_form", "sequential"):
        "9ab02bb3b7e071ea250a1c11c4bdcf42f2121c741dd8a98c756ad73fd99eb76c",
    (3, "trinomial", "baseline", "toffoli_form", "sequential"):
        "666d3112f5ab7fe2ea05a698b05668a3b16138be5432102ddd84d9bb9089a4e5",
    (3, "trinomial", "log_depth", "ccz_form", "sequential"):
        "6a794e364daf5eee662c1c00c69300cdb4e5c16a8c72b90f847f7e1a9310ad4f",
    (3, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "9ab02bb3b7e071ea250a1c11c4bdcf42f2121c741dd8a98c756ad73fd99eb76c",
    (3, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "666d3112f5ab7fe2ea05a698b05668a3b16138be5432102ddd84d9bb9089a4e5",
    (3, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "6a794e364daf5eee662c1c00c69300cdb4e5c16a8c72b90f847f7e1a9310ad4f",
    (4, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "eea393a6c0dfbf88276a58b79261cba90039fc98375b74ad56c95734d34da1bd",
    (4, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "04ee2cf6b24b625cb2f7cb77f0729d0b8498d97ed140b79caa4456802545b12e",
    (4, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "42b54d76e1de19eb6f61dd6ea53231c943f99830be95f0b1a80ebc2e3cd27a62",
    (4, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "c8a28869a668a9134060bb80a3868509a5b842ef0346817f2638412017d3b689",
    (4, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "2b1b13cfdd467b27877d071134a28f000c2cd5a72d05b351891036f20012d547",
    (4, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "845533c957ee0d0a7bf292b8c13bb2819e67cd15f3914c123371f6eae2410d9d",
    (4, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "ff01ed773851000678a99be3a300cf0ea0d35a01a365970d26f0140e0732a347",
    (4, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "ce22ad20b2a1b5d4f28d3ade6c87891bffda16276b32854411454ff5fe277a9e",
    (4, "trinomial", "baseline", "ccz_form", "sequential"):
        "03a480010fa7bf08026644faf0317075ef3ee6681081513102258434fddab517",
    (4, "trinomial", "baseline", "toffoli_form", "sequential"):
        "bb7867210f03d9b641abeb0fef65d46f113f76a2ef80a7d1b5c7e524f622e8e7",
    (4, "trinomial", "log_depth", "ccz_form", "sequential"):
        "22f3b3fa5951861e279bc1b954b5986386bb284660b34f0167e161fc5bd1958f",
    (4, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "03a480010fa7bf08026644faf0317075ef3ee6681081513102258434fddab517",
    (4, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "bb7867210f03d9b641abeb0fef65d46f113f76a2ef80a7d1b5c7e524f622e8e7",
    (4, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "22f3b3fa5951861e279bc1b954b5986386bb284660b34f0167e161fc5bd1958f",
    (4, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "ff6f546c0dc0345bf18cfa84d63a46232509c2fad93ba3e6c897ba1c7cdc4920",
    (4, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "5b659fc6d094a5eee087a3a3f4a69662f845f6eada1e16628a5883f185c01d4f",
    (4, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "5f005f9bdc919f25f794fdd70cc162a7fa69e9f0f64ff1f61415463908ef0638",
    (4, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "b888eb79ebf67726105ce95811f003585d169489908c5b42497dad1c20fff15c",
    (4, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "f83c172ad50f55a2ec4e3d09fabdbec7fc5e6caa330bd029a6c2c0a54f55a700",
    (4, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "e699580dca52f664af928b2b22066a10466d9627c3f3f3d3565180ec82538c44",
    (4, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "b041f0bfcd708ff14c60c6d034f4b25199b1ddd4aefca3f59b1987de3f5c805d",
    (4, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "95ea22553809827e33c365cc1458e0bd80284148b5d00f9496d079db25693e58",
    (4, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "205d996623e3d7f9c34701c99f3137a974f5e95d5cff3bb86bac6e201e7765e7",
    (5, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "dd6b602b85f1dfaaf07a704ecacc7490ed846eaaf52790a9f91ad2b7a5a2921d",
    (5, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "53f323d5a87194eb43700fb6eae8c17d6d565e74dfa00eb26ceea8c1f9794220",
    (5, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "8f0e543ecb4784b2c32a0ac57193119edd72063c0fe170f0a4fad8fa868034d9",
    (5, "generic", "baseline", "ccz_form", "sequential"):
        "250bfd3ff79b68abd2c6726898efa411a3f33dc39e054aa1d181989e10618f68",
    (5, "generic", "baseline", "toffoli_form", "sequential"):
        "53ffe31aa3778b255c0569f78b2a683c9985eae760caad9e28b9eba45921cd4f",
    (5, "generic", "log_depth", "ccz_form", "sequential"):
        "ed62a67f45242bcb31ab644d182ed1f67fd7139bc9e60b8a3d67c400931bdd4d",
    (5, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "250bfd3ff79b68abd2c6726898efa411a3f33dc39e054aa1d181989e10618f68",
    (5, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "53ffe31aa3778b255c0569f78b2a683c9985eae760caad9e28b9eba45921cd4f",
    (5, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "ed62a67f45242bcb31ab644d182ed1f67fd7139bc9e60b8a3d67c400931bdd4d",
    (6, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "ec50f738a9b883aa22d13c25b6d26bdfcffc2457568929ba1a152bffa131cad7",
    (6, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "a8dbb8dd81c084879e5a7b58c310d54c8ff0b9ea43c95028e3b2db149a2a1c52",
    (6, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "593369c07b313c25306fa3f3354409aacad87ab6c0cba463a7b561ba4d12c6ed",
    (6, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "df95db3c9c78202600b72427442ba9022d5872e1347621d5fe4b0da884036521",
    (6, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "1caf1e000107a8c23b058694c7c4432188195d2528bbca2df46cff39c078667a",
    (6, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "ce2561df681b0cbc2c8ab3ce8b71bdca190032b092d4e67fd4b604364f5e8ba9",
    (6, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "6d569cf55f78e5b0b874fbb3c7c55e1d25c0179815c336a97e1e7019c1b75490",
    (6, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "a38ba0c02c8caf7154159e955204d5e1033d160fa3527e91b899ebbb72fe885d",
    (6, "trinomial", "baseline", "ccz_form", "sequential"):
        "fc618cc6ee95550fc721adfeb704b18ade9302757550ff04ba86ec8e985c2d27",
    (6, "trinomial", "baseline", "toffoli_form", "sequential"):
        "514d40a7384d2f80e559c5bd25662a878c0504b499a3410d88ad22f5ffa5f207",
    (6, "trinomial", "log_depth", "ccz_form", "sequential"):
        "5c13747859f8112a71cf19337f915e6f1191f2ad635000d27c8315ba786520fa",
    (6, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "fc618cc6ee95550fc721adfeb704b18ade9302757550ff04ba86ec8e985c2d27",
    (6, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "514d40a7384d2f80e559c5bd25662a878c0504b499a3410d88ad22f5ffa5f207",
    (6, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "5c13747859f8112a71cf19337f915e6f1191f2ad635000d27c8315ba786520fa",
    (7, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "3240aba8a0ae1ed14c8010254ad4e3dea26661fc6ca74f3f4890b6b01e68a780",
    (7, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "922ac04491145f3664407d5e2af7e20e316762e53a533e97e6eca5a9f5271054",
    (7, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "ca90e6882dc4ac9b3382f2f047936ee193f9046960f640d8613262ebf0c50357",
    (7, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "0e3be9a76084d5e111eb3fc933d777f84c77d0272a2ab50d4db8e382a4237392",
    (7, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "f15b129cbc8c0501d774feb840e3525f28fddca37dbbe842dc6b91b01aa31340",
    (7, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "d7a2cb7e0a60037e0ca58a97afc4748004ec31c3b65acc7faf6205c68b43fddf",
    (7, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "b1638b1d95dc90ff1d335bb506d4bf5df0b9ed747ce49823235de8b414632c3e",
    (7, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "6bbb63ee663e77089687062bd4a5cab7185222c775a42e20f4588139d7b2d9b7",
    (7, "trinomial", "baseline", "ccz_form", "sequential"):
        "8e7072bce8e1a7dc570a039f0ccb1c59627ca3e9e2e3ae8fdfab6e4b0938cf41",
    (7, "trinomial", "baseline", "toffoli_form", "sequential"):
        "006038a4c016710c6f92c4735821e2d31bbcd8b3c6e34c1b1f1a3717a0e827f1",
    (7, "trinomial", "log_depth", "ccz_form", "sequential"):
        "1ad9db2d59b4cd87a46ad251319b6e234269cdffeed0fdaf4142bb4a46789649",
    (7, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "8e7072bce8e1a7dc570a039f0ccb1c59627ca3e9e2e3ae8fdfab6e4b0938cf41",
    (7, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "006038a4c016710c6f92c4735821e2d31bbcd8b3c6e34c1b1f1a3717a0e827f1",
    (7, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "1ad9db2d59b4cd87a46ad251319b6e234269cdffeed0fdaf4142bb4a46789649",
    (7, "generic-pinned", "compact", "ccz_form", "prefix_ancilla"):
        "3af7bafdeef4391df3afefe48cc439ccd77b1444d89797a4114a7f5ade57cc13",
    (7, "generic-pinned", "compact", "toffoli_form", "prefix_ancilla"):
        "6085f1b3879fbe99b649666994f002e0bc4b18e27ba5e24c9dfad7b73608648b",
    (7, "generic-pinned", "linear_depth", "ccz_form", "prefix_ancilla"):
        "01d6ece5c5389741354190f14ed775fd990b3b514635d5df5a58114e7c9f14eb",
    (7, "generic-pinned", "baseline", "ccz_form", "prefix_ancilla"):
        "ab5d061cd5f072904fd91bb38cf5accfde53fe0ba8c02a529195c7c662153824",
    (7, "generic-pinned", "baseline", "toffoli_form", "prefix_ancilla"):
        "d06a6aa5589fb39fdce7ea64279f959e909dcd711d376b9adcc164982e14aebd",
    (8, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "bb7ee84352cae7618a7ceb9d180784492551d3a3a644837a524c38a6c9c5cbaa",
    (8, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "31d8fcbc19f360c74d45e5777f366705ed022780dee7a8992804a3e227b03335",
    (8, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "1abdf74648daee71af6dca0de26ad6d26748d4bc991887b6d8eb767eba9e75eb",
    (8, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "bf45c85834dd1f7b89211581ba0b6b25c90edc4f60556e0be9d074b62b60d8d3",
    (8, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "8b8cba2394320280740ae257cc572fd28b508e3e8d7bd842d4ae51e74c056abf",
    (9, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "06dcb7ea6e394bb734d622a84425362d28b3116a2571f11571efd5a233f75e81",
    (9, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "7a4525deb482cd5e4185e16969c62b6ced4b470b5104276bed2cf3d5f6101c97",
    (9, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "11ccf4d5fc81aeb8a67c912a054a3d22f5bca6ebf05e9ee340828334f26e7f20",
    (9, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "9461e6dbbeda5a4f0df93df48755a1bcde30af091cc4e8999f942c2db86dac25",
    (9, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "6751f6da27a8bb59df4ca881b489b7ff79fb04164995eebdd0d0a8dc7520e5dd",
    (9, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "7ad87927978c0b03bcb1b903090b62f3046a1a094366e536bf1f57f73fdd53e8",
    (9, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "90ab75e875376973d4adc61cec4c8909922b28772a482e4100515676078bdb6f",
    (9, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "4c0f9eb0c811f6c0e83b3e1fe0c6ebab3467c7d9c25b5224374721f90fd00fd3",
    (9, "trinomial", "baseline", "ccz_form", "sequential"):
        "332a740fe572461a1965332ab98c148f29e4af67d9f7fef1729a47b57085acaa",
    (9, "trinomial", "baseline", "toffoli_form", "sequential"):
        "cb9032a932fc109c04bd1bc0d043f7ca61daa902dcce02fac908ed0f166a18fc",
    (9, "trinomial", "log_depth", "ccz_form", "sequential"):
        "d3d1af224697b1727b3f318c50a142dbc52e38d738d6073974b7d22fcb6e3df1",
    (9, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "332a740fe572461a1965332ab98c148f29e4af67d9f7fef1729a47b57085acaa",
    (9, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "cb9032a932fc109c04bd1bc0d043f7ca61daa902dcce02fac908ed0f166a18fc",
    (9, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "d3d1af224697b1727b3f318c50a142dbc52e38d738d6073974b7d22fcb6e3df1",
    (10, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "ade63c22edabf497d42259790f9314ed5c9df5ef24122bda3636907d252a24c3",
    (10, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "4bbe8190c5405392b8e5a49922ab31f0e0e03331ec62ebb815c4bcdedb0308bc",
    (10, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "317deaa77c5edef8532675edacf9c5425fed6ce59b68c35083b89beb2682acda",
    (10, "generic", "baseline", "ccz_form", "sequential"):
        "e1d382c62f4eee40478b6bc3b0f30c28f7bc7b0c0ba5f3aac42d6f7ad5a575de",
    (10, "generic", "baseline", "toffoli_form", "sequential"):
        "05c3bb4034e744c159b6d337d595ee39d55602d5c4c0241bd9a97326f80a8928",
    (10, "generic", "log_depth", "ccz_form", "sequential"):
        "5d3294fe86c6ab7d5505b84cd7be4c0fe9e065697cffee74503535b59bb7953a",
    (10, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "eecb24ae9ed72caf8785b063bc46d406682f0f4b53e35e0effc799770c6a04e0",
    (10, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "8c6c59f9c3090bf3f705fcacf3734f60ebf393204f1ec05e61eb495d2f9c6e7f",
    (10, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "5d3294fe86c6ab7d5505b84cd7be4c0fe9e065697cffee74503535b59bb7953a",
    (10, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "72133ae0f062c0952a1d53639d4037b234ef6c974606fad1a89ca5305c8a3ea5",
    (10, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "93bc3be595d8539a6674d7eb80a348f4578424b167d21bdae23d960b71c67a30",
    (10, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "ade3c1937dc5c1b8e045fe46835779967217043c254ce20008dd167cf43bf32a",
    (10, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "4608cfc1d14335753cdf73f12ed2c49fd9793c61a851fe8ef74afc71fb103288",
    (10, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "282aedb480d7cd861ef9fc053bde19aa6853ab7e1c93d00db2f35bb246534158",
    (10, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "c9bb8e8b99b5c8c02c6bad71c147c967253baae993ec995d99103fe0335c2aa0",
    (10, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "34452fdd406c9503fb59ac2a8be2f4c4ea094ebbaa615dc10332073ce77a9e60",
    (10, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "53a14184b2cb814a0d8377aeb3b2dc52a849bf847a3ba163a2896d85c5fb4304",
    (10, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "b2d5f41c73362900e7c005db16f4c9a10a20906a3b4c0c8c3eb5577e77e4d20b",
    (11, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "1b2dc42e54ddc2778f61dcc84972f56cfc1d477f5ea75f66c7a757a612f2806a",
    (11, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "71bba4bc319cde31e07a96fb7f2903816d84cdfdb85cea202dde144218c27108",
    (11, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "efaf90b98642bf6b39dc25e4be67c224f1e4873a6848e6c9d276f329a72ca173",
    (11, "generic", "baseline", "ccz_form", "sequential"):
        "8dbb241a42ec0969e1f654d42b0d6c7217fa5c209fa897e4e2c7833fe5e0b1ef",
    (11, "generic", "baseline", "toffoli_form", "sequential"):
        "4a2daf5a9f50d128b54b97005636af05f3387621e2afd406f4f1cbe97acdb69e",
    (11, "generic", "log_depth", "ccz_form", "sequential"):
        "d99f7d24f678a638c9c00d2d9c09ce3022c2b9fb15e557e43d97ccdc9ec0256d",
    (11, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "3b3d186a4ad4bb03e3d407cbeafc9923545d1254b928499a3b2215f73f85bc3b",
    (11, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "c90d3a0b21a70bdc4103c95967a0cadf412e4fbc4b9cb7738981f78f23bb7b0e",
    (11, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "d99f7d24f678a638c9c00d2d9c09ce3022c2b9fb15e557e43d97ccdc9ec0256d",
    (12, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "3adf16954b5bf5241e44e621cb277db8400389c6dbea07a2e0a12816471479ae",
    (12, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "de12c73494149376fe6ceeafeecdcae6306b8843266e3b2a672abca14ecfd826",
    (12, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "903513127828b40ebbcbcb2a4f2021c0702820e7d8922d928d9daf97de413e6e",
    (12, "generic", "baseline", "ccz_form", "sequential"):
        "11a822bd6f6d1c190cdcfff36f45c348d1d9e85988204ee0b2135afd633e63d4",
    (12, "generic", "baseline", "toffoli_form", "sequential"):
        "951fc92a4bbbb9c6171bb1f58eed2370750490b5d055314f1473ec2583f3ef33",
    (12, "generic", "log_depth", "ccz_form", "sequential"):
        "1d9bbdf802261df2437ebbb9caadb904dca389359299b4944a1f0c222bd129bf",
    (12, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "ff14cc7b4150926cef87f4e799742d357df946669e28df82f85fab90b3663c8a",
    (12, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "bc96f6133ff3019fb1652abb64ef9eb57ce8368998ba332d519b7e3f6ea02745",
    (12, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "1d9bbdf802261df2437ebbb9caadb904dca389359299b4944a1f0c222bd129bf",
    (12, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "45a0f75b1a74a8cc7f3b27dcbee0d440aa18a833b8867c63c43dd0a3b17dfea1",
    (12, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "a590df4db1029aa1eb1b67fdbc4bb5b831ad493dd9815644d0b5390d824fb732",
    (12, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "f8d23fc588e9babe383a7b9001239a9a71d0a40c38e9a74efeef90ba3c69e74e",
    (12, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "a351d1e73b898a68a71ec8b69f4f19602b342ac8d94b8fdf42ef77d73932ec04",
    (12, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "beb22e0f8ab5c6acb0d56091d35949f1fa607ae4eb1d61850ec555f44a08dfac",
    (12, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "4b029c5acb4b02b94f0280ff819020700123e6554554b514e94955ced136b30e",
    (12, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "9098e5047e89042fb470ec5a19a728bad25eed56eade8e8892ea53786faa87d9",
    (12, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "20f97ffdb9893e7b62f92c56ec7d1e2c0bc3bc13102560b031a3467eb5dc19c5",
    (12, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "ef0949c64d539729ad3ea6a714e3c7d8a02c8dab71785d3e3e5ca3baf1bddc43",
    (13, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "673cccae286f1ec0f0bd568b1435f3f00d36727c8113518d23f62e75b7e6d193",
    (13, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "f9c224024f0246ef3c5f10cf658403d1c438cba36b1b8faca57f653dda599ba7",
    (13, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "d59bc239f683f8eb1bbc31fb955e78554aa02eb47ce8087f0e642d6b8a80709e",
    (13, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "1285ed696ced9bb37d53b8ea970bfdbc7a82c37f2919b7090291ee8e780c3d96",
    (13, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "46336f0a1111255de564c264f2ad4f632a20efb7de98aa8a25202c1da4220514",
    (14, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "5a194c57027c0ca80aa27ffa9bd1117d2d7d75b5a98485cab3d3d4e49e12275f",
    (14, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "c84d15a60ea2ca66e6c6f0d613fa524bf24e69dee5055b06b74ff3e0cf1b4972",
    (14, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "e63dae9af2eac42109da9b7168fb97e35a812d8f913e9c50a1a53e7e3298a8d5",
    (14, "generic", "baseline", "ccz_form", "sequential"):
        "a32d0a27bb3ff1c8aa785246fd3677608939df9622ddfbc53d91d94863869464",
    (14, "generic", "baseline", "toffoli_form", "sequential"):
        "08ede31415bb60d56ab2376e4c3e148eaecbf2390e471b2d0922daed5a0a890a",
    (14, "generic", "log_depth", "ccz_form", "sequential"):
        "c4bb34a77e244debfa3aaa15c1ecc364ebdc4efca60c723f30ba0ff1a32f0c48",
    (14, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "a32d0a27bb3ff1c8aa785246fd3677608939df9622ddfbc53d91d94863869464",
    (14, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "08ede31415bb60d56ab2376e4c3e148eaecbf2390e471b2d0922daed5a0a890a",
    (14, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "c4bb34a77e244debfa3aaa15c1ecc364ebdc4efca60c723f30ba0ff1a32f0c48",
    (15, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "f4d030e81fd702368518078b287cdadf4227cd8e161cd619eaf63a40b636cdaa",
    (15, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "10233694c8f9a090143a7a39b994c93abef80b27bee07f991dc806cd559eb761",
    (15, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "aeab52d66a6c22dd6affcc48792c304e3d499cc159e23690522636df32130ce8",
    (15, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "125a281135659fdbb919869c8722317228879c746b9c7c9a5ed16b908244eb07",
    (15, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "7aa601f62a75788b69ff2b0a30cdc3e86672f5d825a7bc2cad5f6929ecd74f3c",
    (15, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "2bf4d025b6149ac8a659a20107a4bd30f18e7ec9c7feab66909c5370a1cc853d",
    (15, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "edbd752db413d977585cb85cf126864d6bdb48dffb5e0d2a1aefaf549c83a9b4",
    (15, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "76d11331bc420e867c8509ea8cc775251bbbe6e2f3459b2d621385e5489e6ae0",
    (15, "trinomial", "baseline", "ccz_form", "sequential"):
        "342dfef1ff1b047216af43c014aeefbe2b5763682403b6fb2758b35b1ed1c4d9",
    (15, "trinomial", "baseline", "toffoli_form", "sequential"):
        "696a8e750e8b1d144f1796321dfa18bcc69468e790c8dec6cd78991425ea23db",
    (15, "trinomial", "log_depth", "ccz_form", "sequential"):
        "8f02953d23c6b8adb2c41bb38bb7bc06f47a4fa9dd22c2c055ac27638bcba5a3",
    (15, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "6691b422cbd1f88c6fc8768afc279f1d134745026bf2820cfe191698a2899770",
    (15, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "cb4f4889c589951e1b947022c1522ab050dd1099bb67608c806a44df35e483b5",
    (15, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "8f02953d23c6b8adb2c41bb38bb7bc06f47a4fa9dd22c2c055ac27638bcba5a3",
    (16, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "fe3dc2e743ee41472dcccf1234ce360c6caf133ee080b7b8eaddfefa2604c570",
    (16, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "6bb59180509e2197ad4acd78b16209f15cfa521bc64bcd0a387f89f378f55947",
    (16, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "d769b20ba2db922d325eea7bbe38ef8f9cbd7b278986a63ccf13e35c63d8a926",
    (16, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "6d40d8ef5076b243040b1432332b0a6fac1e3b7bf22606809f73973f6832c1e9",
    (16, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "0924d9116308c6bca8469ec9bf70d7315795535ee0c5705fa6d31d229cf412ae",
    (33, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "06a5f39a53814c584895194308d9e026d862190874b144d77ba3b3ebf18f5f37",
    (33, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "600228ff421fa9af31855ccb1beebed2a17db47ce3094ca6dcfee99957815a5b",
    (33, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "8afcf7d5c80ecac42dd8cdcd235f9c9cb58b35a02c0ed2ce175d43bc3a294d9c",
    (33, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "756c8ba9e85295b293989e5bd72439af539095f32928f300afb6464fd1a89943",
    (33, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "f8423c15f5029fd303ba3751b8eb8314d9c27c7a4631ad09f5b8cb233fac4e01",
    (33, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "36f3b8d532def6f00c53bdae023d757e2c7fe68143f0e322708a9fe685d09719",
    (33, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "b41e3678497430af3dd4ca12c75ab5af892cb98c8cdeda697eb981bf323d2a46",
    (33, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "b48f3cffac63e481e1dcfe5748c344213432edf920e5389edf72211fc5f9d0cf",
    (33, "trinomial", "baseline", "ccz_form", "sequential"):
        "986db76d864ecc96a6aef6b8491a559cf111f7d7bc8071b453b2935e607ad84c",
    (33, "trinomial", "baseline", "toffoli_form", "sequential"):
        "764d59391c84efeb4ab7ea6d7525cc583ecff2d4ea07d45e5970007b3baa24d1",
    (33, "trinomial", "log_depth", "ccz_form", "sequential"):
        "5c68e6ea0f99eb86f0bccbc153e33b215f22a8e913a7fa7e1bbe63d272c6a17b",
    (33, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "695412598fdedcd8fb945709f33554de89fe7d91edef69a318c3e6ae0ab18359",
    (33, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "032ebb4b3a16a9aed1d7fd048d3b66db3a99977586bea90c8d7762cd26eb5263",
    (33, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "5c68e6ea0f99eb86f0bccbc153e33b215f22a8e913a7fa7e1bbe63d272c6a17b",
    (64, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "2f2dfbc9f8061be9fd83583b640a5b3d5b8f758b7a5f57bef1ab00eb0e9ee9cf",
    (64, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "516e16aaa966170610ee4bda5ef91bbab71d4b4a0a4e7cf5141bff409d6f36d0",
    (64, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "2ea630f05b1ef46ff207f7e83143d7a3fbfa11e165453151b5fd3b0ffc64ae33",
    (64, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "d43da07d9a9403e414b5178a8fcf455d3d24a79dc34451492a36e2b48fafceb7",
    (64, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "2228ab8e4ed2403a1faea232c4bf5ef75bba6ba4ad7559c72f4d740592a9a012",
    (127, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "208785c856471fdfc9457819ffce981049a3804b47cf2c8c23625c67476eae29",
    (127, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "0032153026bae7f8000033b336add068e8ec2a2abf775ddfacb268004a05369a",
    (127, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "06600da0011b9b170299fe06712afd180ad83be635f202b0dbf961efca8385f8",
    (127, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "95f88900520f98cc4b321520cb6cbe9ff9bcc8f3db22a2719047bf697b90629f",
    (127, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "6c2525bc0df1011b2950cabda4a5f2164d5556fe868261521bd02b8ec134053c",
    (127, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "0331fd873438e97a2b838e2ce5daee9a2eb8a6507a6b67fc063b723a67b92838",
    (127, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "c81ca555b7b3258eb37c6020d973a218ec12a4b9d678ab233f9c4bc34973833d",
    (127, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "65e5ee11b8f490d3f8c0ab917caf22bfafad112870ad93bb6fd3a6d736ae24a7",
    (127, "trinomial", "baseline", "ccz_form", "sequential"):
        "7985f6e7da91e5cecbea32d3ce6c40219625a6e8304507e3752029b904a5796e",
    (127, "trinomial", "baseline", "toffoli_form", "sequential"):
        "6f638b5500b6666576a2d3346e39a907683fd8ade98cfa73f4eba35f7c604fc5",
    (127, "trinomial", "log_depth", "ccz_form", "sequential"):
        "22c08167abe319089df43c8e1416e477cab95b33d77f7ed9744350639f8504e4",
    (127, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "e65bddfdcca9e48ad7eaf3c4f739a39556ad6a1e80a9179a9e202d76843194e2",
    (127, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "568417da4f1ececae7ebb8d2413ca283c79761090ff1bc6ed9fed120513cf06e",
    (127, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "22c08167abe319089df43c8e1416e477cab95b33d77f7ed9744350639f8504e4",
    (128, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "6a1d2406ff34e9fd42c41fc800bfae7807d0e960d99f7e8975d7705e6ead8b97",
    (128, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "4eed89073840688ee7634a8bcc03295d5d055bd3b3fc2733f5c0889e381bf06e",
    (128, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "52983ee1f48f9bbde34fd32fd235d56729a9b24eea8ef801a52866c57f313cc4",
    (128, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "de21706b010b29a08d256aee856271031ed003e6cb9111983d8185194e1c7eeb",
    (128, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "71ad8f2763ce5694d577b460f338cfc1313d8e1f7e5f0044fbb175d1de141623",
}


# Compact at the benchmark's size: the catalog's generic modulus of degree
# 256, in ccz form and as its `to_toffoli_form` rewrite.
GOLDEN_COMPACT_256 = {
    "ccz_form": "019c4b8902247a10591f76825bed8c21240b80132e81b714627a37af49c637cc",
    "toffoli_form": "c0661be2cc2118f07557f1ce911177fddff1e242a384e58fd5d50ed1a13ef292",
}


def test_golden_compact_n256():
    (p,) = (e.polynomial for e in catalog_entries(256) if e.family == "generic")
    circ = synth(SynthesisOptions("compact", p, "ccz_form"))
    got = {}
    for form, c in (("ccz_form", circ), ("toffoli_form", to_toffoli_form(circ))):
        got[form] = hashlib.sha256(emit_netlist(c).encode()).hexdigest()
    assert got == GOLDEN_COMPACT_256
