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
        "49cefd24c0de3d9be82fb247a0067241061ee8d070ce2da0f07ca6d232054cb1",
    (2, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "fe5b8dad5d1b67eb5abbec1bbcde403bd8fe294ede423c0ac9030468a49860f7",
    (2, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "7c81fe9dbc1e61e12c8d54193b2567d03d1c725eb1c0eea88da694a8fef68118",
    (2, "generic", "baseline", "ccz_form", "sequential"):
        "b20d9480cf1499737910582406a8e15b475b0e8d5a3824e03a627245c3207e51",
    (2, "generic", "baseline", "toffoli_form", "sequential"):
        "b8623f08bcf2a47561c9842fc39484a4e96b713830e6495f5adc9f8c2049ec3c",
    (2, "generic", "log_depth", "ccz_form", "sequential"):
        "79ad1a7ca0a34589aa91c6691db2166cd60f0de6d39d8bba654f08a6908ca8ec",
    (2, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "b20d9480cf1499737910582406a8e15b475b0e8d5a3824e03a627245c3207e51",
    (2, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "b8623f08bcf2a47561c9842fc39484a4e96b713830e6495f5adc9f8c2049ec3c",
    (2, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "79ad1a7ca0a34589aa91c6691db2166cd60f0de6d39d8bba654f08a6908ca8ec",
    (3, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "9aebecb753222dabdaaca2b250eacb695bfbafa24edb5c4476df27137784121f",
    (3, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "17b99ca5d04c185a401eb9aa9db2d6da0cc10fcfad02572f70f2daeccaf75368",
    (3, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "271ddcda288b0e495f33c5aaa0d4510508e1f1aef8ab09d7be433dd0a372f145",
    (3, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "3067ac3b896bc5b277480db139f997f7b90eee37a9bcbbf7d3f434b4ba565ba5",
    (3, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "e0bf459ef61316ded124c0ded8eef9d529dbadb5a78c99e0c920fa407cea5f60",
    (3, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "479d89858612e62c2c297dee6b0bf60b6fc73e63e0253e549efd3e583405be35",
    (3, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "c5d144d43c3259f08fa19bfffa3482fa328394cea7bb781d32e088b0666561db",
    (3, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "8ee042a305593644afd9889f21dd3559dc982d1874ceb34cf4ec57385d161423",
    (3, "trinomial", "baseline", "ccz_form", "sequential"):
        "9ab02bb3b7e071ea250a1c11c4bdcf42f2121c741dd8a98c756ad73fd99eb76c",
    (3, "trinomial", "baseline", "toffoli_form", "sequential"):
        "666d3112f5ab7fe2ea05a698b05668a3b16138be5432102ddd84d9bb9089a4e5",
    (3, "trinomial", "log_depth", "ccz_form", "sequential"):
        "75cb48df0e25ba6a6c4a4be66624496147376be01345fb6e8fc97e8d4d12a478",
    (3, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "9ab02bb3b7e071ea250a1c11c4bdcf42f2121c741dd8a98c756ad73fd99eb76c",
    (3, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "666d3112f5ab7fe2ea05a698b05668a3b16138be5432102ddd84d9bb9089a4e5",
    (3, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "75cb48df0e25ba6a6c4a4be66624496147376be01345fb6e8fc97e8d4d12a478",
    (4, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "062021eef22aa84eac72a66733b297324eef5ff771988df1e54f5476d30ee66b",
    (4, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "1c1dd26c7e6026cf217da34ccfa944838fe551af642d793f9faef3d6c02f10cb",
    (4, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "8d9b6611a573b4ccef4764408b1554a7104e9a70a7cedcfdf34332d2f119db2b",
    (4, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "c8a28869a668a9134060bb80a3868509a5b842ef0346817f2638412017d3b689",
    (4, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "2b1b13cfdd467b27877d071134a28f000c2cd5a72d05b351891036f20012d547",
    (4, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "2dfdde54a6eb90cef327feeaee5b927a263bc21d02ac950642e3e43e870b7523",
    (4, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "ea5be610570a39a825d934797f74fbdeccac8b0ab50126cfcfdd3e3e6d01478a",
    (4, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "643c80ebeb7acd2ac11dd9ba3d2f4769f731523d5e84b2fe0364bbd201286ea7",
    (4, "trinomial", "baseline", "ccz_form", "sequential"):
        "03a480010fa7bf08026644faf0317075ef3ee6681081513102258434fddab517",
    (4, "trinomial", "baseline", "toffoli_form", "sequential"):
        "bb7867210f03d9b641abeb0fef65d46f113f76a2ef80a7d1b5c7e524f622e8e7",
    (4, "trinomial", "log_depth", "ccz_form", "sequential"):
        "940308d337cc6c35ece54d7fe0717aeb8175f10983245ce6897975eb4aa424b3",
    (4, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "03a480010fa7bf08026644faf0317075ef3ee6681081513102258434fddab517",
    (4, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "bb7867210f03d9b641abeb0fef65d46f113f76a2ef80a7d1b5c7e524f622e8e7",
    (4, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "940308d337cc6c35ece54d7fe0717aeb8175f10983245ce6897975eb4aa424b3",
    (4, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "a2d9646e7429019cd196b6864ab1c65216b7fb817aa1d2c1c7f9e297bd3b1410",
    (4, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "8156d61006c99f9931f59a1e308b0b160e3ce0262f8400a433823f4041589e64",
    (4, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "5bb246bb15223753a01fd41f1c930ee3c43c254ef0719af53727741d21523116",
    (4, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "b888eb79ebf67726105ce95811f003585d169489908c5b42497dad1c20fff15c",
    (4, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "f83c172ad50f55a2ec4e3d09fabdbec7fc5e6caa330bd029a6c2c0a54f55a700",
    (4, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "0e09c872a7ddc20ff73c2066bee5a1c0cb78ef8ff835b5593ad13aaa2db1f08d",
    (4, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "b041f0bfcd708ff14c60c6d034f4b25199b1ddd4aefca3f59b1987de3f5c805d",
    (4, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "95ea22553809827e33c365cc1458e0bd80284148b5d00f9496d079db25693e58",
    (4, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "74165b885c69ec70abe772ac11467c105073d851d11d0c758adb60f5ec5cd581",
    (5, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "5e2a68527305a2315fdbbfdb7092ac805f8d032925ba868fcd3f2d9955194a4c",
    (5, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "58f7cbe9482d65b80a4e7a79d274d7cf22321accb21907b96ffb9283185a25b0",
    (5, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "f744bd031aef8da1c7cc7be6297c1f2e473881786a1e62017831e37fb56cddc2",
    (5, "generic", "baseline", "ccz_form", "sequential"):
        "250bfd3ff79b68abd2c6726898efa411a3f33dc39e054aa1d181989e10618f68",
    (5, "generic", "baseline", "toffoli_form", "sequential"):
        "53ffe31aa3778b255c0569f78b2a683c9985eae760caad9e28b9eba45921cd4f",
    (5, "generic", "log_depth", "ccz_form", "sequential"):
        "f95d4b331be7fbf410e5a68b37367d75464ec1efcd2b0c7b649324fdd763a550",
    (5, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "250bfd3ff79b68abd2c6726898efa411a3f33dc39e054aa1d181989e10618f68",
    (5, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "53ffe31aa3778b255c0569f78b2a683c9985eae760caad9e28b9eba45921cd4f",
    (5, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "f95d4b331be7fbf410e5a68b37367d75464ec1efcd2b0c7b649324fdd763a550",
    (6, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "3e5401318afc31d89a6edbf97d82f25f19de583ac2f1f33d9e3d7ee86a36c082",
    (6, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "f8388c195fb999e0f8a479a3628abda8a6ffbbbef9f55c83e9640032b05a3375",
    (6, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "37ad9e1fe5090df26b1d3dbb402ee5d725ec2a6586754db76540a738b14a98f4",
    (6, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "df95db3c9c78202600b72427442ba9022d5872e1347621d5fe4b0da884036521",
    (6, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "1caf1e000107a8c23b058694c7c4432188195d2528bbca2df46cff39c078667a",
    (6, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "88723f73121ea8d217ac79c712c251b368349ff43b47b091ce94326ae58e884b",
    (6, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "bf8e536a633cfb583ee2e0c8761eb81082d928d4efed6aacfe379cae711eaf7e",
    (6, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "ec086047e8c3c80a2c9ebcf0ba3936de84a81ca17b2bbe25c8680dbca715e839",
    (6, "trinomial", "baseline", "ccz_form", "sequential"):
        "fc618cc6ee95550fc721adfeb704b18ade9302757550ff04ba86ec8e985c2d27",
    (6, "trinomial", "baseline", "toffoli_form", "sequential"):
        "514d40a7384d2f80e559c5bd25662a878c0504b499a3410d88ad22f5ffa5f207",
    (6, "trinomial", "log_depth", "ccz_form", "sequential"):
        "af759df3be7af83c170753e8b2564ef5150bb9f29dfbf1bf36701c60c535f6ee",
    (6, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "fc618cc6ee95550fc721adfeb704b18ade9302757550ff04ba86ec8e985c2d27",
    (6, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "514d40a7384d2f80e559c5bd25662a878c0504b499a3410d88ad22f5ffa5f207",
    (6, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "af759df3be7af83c170753e8b2564ef5150bb9f29dfbf1bf36701c60c535f6ee",
    (7, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "d32ee041aeff898df3d8a8fff3f503e52ab23f13aa7b4ae3eb0b0fa006b6dc1c",
    (7, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "5bc02cd980513a6d1a2d3dae963eb555bcf822584056d687d33161fb47939962",
    (7, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "98bc7f984db5ce208c44e57fb8bec512afaa8ae47f71cc15b4dc8b1b678471f2",
    (7, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "0e3be9a76084d5e111eb3fc933d777f84c77d0272a2ab50d4db8e382a4237392",
    (7, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "f15b129cbc8c0501d774feb840e3525f28fddca37dbbe842dc6b91b01aa31340",
    (7, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "72f2f7d711da595fe1286ef3eb2a733f8e5042e45c7befbe1e7f1f28a5aefa03",
    (7, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "0c9f6e05196783d4744531dd4a9a7a80abf958e780f277a13b973dca51f3ee4c",
    (7, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "dc2f6afb0a47929976ed888f4f135b9430197ac15a15e9bdea6f4802111e7b8d",
    (7, "trinomial", "baseline", "ccz_form", "sequential"):
        "8e7072bce8e1a7dc570a039f0ccb1c59627ca3e9e2e3ae8fdfab6e4b0938cf41",
    (7, "trinomial", "baseline", "toffoli_form", "sequential"):
        "006038a4c016710c6f92c4735821e2d31bbcd8b3c6e34c1b1f1a3717a0e827f1",
    (7, "trinomial", "log_depth", "ccz_form", "sequential"):
        "d2d98e2133ec3480d94e547ffdf731cf8b5618403f6e5a44baaacbc69a3465b2",
    (7, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "8e7072bce8e1a7dc570a039f0ccb1c59627ca3e9e2e3ae8fdfab6e4b0938cf41",
    (7, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "006038a4c016710c6f92c4735821e2d31bbcd8b3c6e34c1b1f1a3717a0e827f1",
    (7, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "d2d98e2133ec3480d94e547ffdf731cf8b5618403f6e5a44baaacbc69a3465b2",
    (7, "generic-pinned", "compact", "ccz_form", "prefix_ancilla"):
        "2a7e4857b7b4e1e060ee45aa513c9e8f92f42865bc972d32d72c1a321ed54512",
    (7, "generic-pinned", "compact", "toffoli_form", "prefix_ancilla"):
        "c3f7dfd5adbf3d1eeb8f24bd24e32c12c5e8d09d6613fd54e0d8ce87e919183c",
    (7, "generic-pinned", "linear_depth", "ccz_form", "prefix_ancilla"):
        "325308088a44ac29544e934ee8d0108381251d4aa42b74c58b93691b839c0d49",
    (7, "generic-pinned", "baseline", "ccz_form", "prefix_ancilla"):
        "ab5d061cd5f072904fd91bb38cf5accfde53fe0ba8c02a529195c7c662153824",
    (7, "generic-pinned", "baseline", "toffoli_form", "prefix_ancilla"):
        "d06a6aa5589fb39fdce7ea64279f959e909dcd711d376b9adcc164982e14aebd",
    (8, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "aec69f701a58a43de75781c432961fd96d7afce7539567575bcd05f200272697",
    (8, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "34c036618a724dd255a91902e3f269238da38593590a46acbc360b5bfdc71ddd",
    (8, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "9aafcb0471954e0319f10b68ce69515547902306ac20bc85e095b01b6a525ebf",
    (8, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "bf45c85834dd1f7b89211581ba0b6b25c90edc4f60556e0be9d074b62b60d8d3",
    (8, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "8b8cba2394320280740ae257cc572fd28b508e3e8d7bd842d4ae51e74c056abf",
    (9, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "4bf7dba21ee44c0360039fd24ab407d44573494557a4c85182d5cad946a8fd6a",
    (9, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "f2896f984c4491f386f01c3fe9b92c9f681df35ece04ce5e3280bdee84115949",
    (9, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "7b9d1956f817d5be04d33d2426da33e6b3b40e432998717131d6388fec7aa19e",
    (9, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "9461e6dbbeda5a4f0df93df48755a1bcde30af091cc4e8999f942c2db86dac25",
    (9, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "6751f6da27a8bb59df4ca881b489b7ff79fb04164995eebdd0d0a8dc7520e5dd",
    (9, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "e4be581d53c8431ba4458e988065ae8798c536bf69b7de7a5c2ec88c082c7281",
    (9, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "717234792f1ef41807c0aeeafd331d38c9414620c2808a73e8fc775c9e38afc7",
    (9, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "4777844a828ad5117315e653f869e13cd71fb10a25c09dcaa3a71fee72496201",
    (9, "trinomial", "baseline", "ccz_form", "sequential"):
        "332a740fe572461a1965332ab98c148f29e4af67d9f7fef1729a47b57085acaa",
    (9, "trinomial", "baseline", "toffoli_form", "sequential"):
        "cb9032a932fc109c04bd1bc0d043f7ca61daa902dcce02fac908ed0f166a18fc",
    (9, "trinomial", "log_depth", "ccz_form", "sequential"):
        "9320fc89fe34af70927ebca92f8ce483b83e23687ab42fdc88747aef9385dbfd",
    (9, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "332a740fe572461a1965332ab98c148f29e4af67d9f7fef1729a47b57085acaa",
    (9, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "cb9032a932fc109c04bd1bc0d043f7ca61daa902dcce02fac908ed0f166a18fc",
    (9, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "9320fc89fe34af70927ebca92f8ce483b83e23687ab42fdc88747aef9385dbfd",
    (10, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "d85570c56bd08b7484f94a568fa89ddef9033f0b6b5e00a194b3fcaa6c3033cb",
    (10, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "93851efbdf5b57a79ac9ac60a65ac3372597d0fc25c9060de24b0ae8648c860e",
    (10, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "e63405ead81ab80b66a981d1a2713b3f5efda20931c493f9c4078e2fcec84a2a",
    (10, "generic", "baseline", "ccz_form", "sequential"):
        "e1d382c62f4eee40478b6bc3b0f30c28f7bc7b0c0ba5f3aac42d6f7ad5a575de",
    (10, "generic", "baseline", "toffoli_form", "sequential"):
        "05c3bb4034e744c159b6d337d595ee39d55602d5c4c0241bd9a97326f80a8928",
    (10, "generic", "log_depth", "ccz_form", "sequential"):
        "9da71fc93f5a6905451b456024f68c862cf0ce025ef73f4d28b0c826d1e20061",
    (10, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "eecb24ae9ed72caf8785b063bc46d406682f0f4b53e35e0effc799770c6a04e0",
    (10, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "8c6c59f9c3090bf3f705fcacf3734f60ebf393204f1ec05e61eb495d2f9c6e7f",
    (10, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "9da71fc93f5a6905451b456024f68c862cf0ce025ef73f4d28b0c826d1e20061",
    (10, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "363dad584a7709efebf5240c8fb41ad427b0208e3b02012dc1c420d83ee585f1",
    (10, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "fd03f61a96ce240629468870353ba7d1b9f3c5aa2f992c5f9b6c2685fd7aafb1",
    (10, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "56fdaabc8f04b8ee99e9f432869d0211e6e78f05b18c2eda2621457eec514251",
    (10, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "4608cfc1d14335753cdf73f12ed2c49fd9793c61a851fe8ef74afc71fb103288",
    (10, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "282aedb480d7cd861ef9fc053bde19aa6853ab7e1c93d00db2f35bb246534158",
    (10, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "078f9e3dec0b8f2b1ed2d8dcdd2877e12b10edb1d441119beb696f4fbd54ec1d",
    (10, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "34452fdd406c9503fb59ac2a8be2f4c4ea094ebbaa615dc10332073ce77a9e60",
    (10, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "53a14184b2cb814a0d8377aeb3b2dc52a849bf847a3ba163a2896d85c5fb4304",
    (10, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "6deafeb97c181259cb155fedb83611c380b1ef66d342e7df39a3921d0927c2e9",
    (11, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "b32c40fe22bd9216bb82ae07b61c278ab54e33a056326efb65273277b1d77c8d",
    (11, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "f0e3ffb7b07a74e19353768ed9a855719a34309f4f60f9ab361014964d0233de",
    (11, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "723b0f8f6078a895247582dc61c80499c9e6cb6777005bc03fa11047d5b4f52f",
    (11, "generic", "baseline", "ccz_form", "sequential"):
        "8dbb241a42ec0969e1f654d42b0d6c7217fa5c209fa897e4e2c7833fe5e0b1ef",
    (11, "generic", "baseline", "toffoli_form", "sequential"):
        "4a2daf5a9f50d128b54b97005636af05f3387621e2afd406f4f1cbe97acdb69e",
    (11, "generic", "log_depth", "ccz_form", "sequential"):
        "25142fc33cc7acd482fd2c3a02b0aaabd514bf5129cd17b2041c6d89d4acd4b6",
    (11, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "3b3d186a4ad4bb03e3d407cbeafc9923545d1254b928499a3b2215f73f85bc3b",
    (11, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "c90d3a0b21a70bdc4103c95967a0cadf412e4fbc4b9cb7738981f78f23bb7b0e",
    (11, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "25142fc33cc7acd482fd2c3a02b0aaabd514bf5129cd17b2041c6d89d4acd4b6",
    (12, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "1ac58ccdc2cef96db590fb978b52bf3b761285b8fcce724eec754a1b930ff991",
    (12, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "b4947351cb539d55a9ce70c5e1a49ec70cc175a697f75c411b7eaaad47cb7a54",
    (12, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "77ab31f31cf2821288aadb7a3359e4db0562b0fb6168679fb5b0e0464dcc0f0c",
    (12, "generic", "baseline", "ccz_form", "sequential"):
        "11a822bd6f6d1c190cdcfff36f45c348d1d9e85988204ee0b2135afd633e63d4",
    (12, "generic", "baseline", "toffoli_form", "sequential"):
        "951fc92a4bbbb9c6171bb1f58eed2370750490b5d055314f1473ec2583f3ef33",
    (12, "generic", "log_depth", "ccz_form", "sequential"):
        "d1bfb406cd8e9915ad29d169fa44a508b19f8c631bddb51bf4801a169718a216",
    (12, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "ff14cc7b4150926cef87f4e799742d357df946669e28df82f85fab90b3663c8a",
    (12, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "bc96f6133ff3019fb1652abb64ef9eb57ce8368998ba332d519b7e3f6ea02745",
    (12, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "d1bfb406cd8e9915ad29d169fa44a508b19f8c631bddb51bf4801a169718a216",
    (12, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "acd47fab285b44a4ca6fbd74ed65c31da951c71d06b5d3dcc6b0f33c8b493433",
    (12, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "f08c975ee078fa857aaf5987b87c051f4dc2ad53d326a955b5903523ff44b2e2",
    (12, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "fb0d52372852621544666843c5b501bca805e47f721f262cacce7993c31917b8",
    (12, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "a351d1e73b898a68a71ec8b69f4f19602b342ac8d94b8fdf42ef77d73932ec04",
    (12, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "beb22e0f8ab5c6acb0d56091d35949f1fa607ae4eb1d61850ec555f44a08dfac",
    (12, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "a741f9cf81c0b07fc5f40d2a11636bf2a2159203a9699d5847ee9435f0b009a9",
    (12, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "9098e5047e89042fb470ec5a19a728bad25eed56eade8e8892ea53786faa87d9",
    (12, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "20f97ffdb9893e7b62f92c56ec7d1e2c0bc3bc13102560b031a3467eb5dc19c5",
    (12, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "baab7aee977cc32fb54de5a9f700b06ef0b768632f4fc97ec9f6ab2a334933c0",
    (13, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "a61227bbac914cded052d0567ac9ec1f636f855d35bca6aab1745d3f6dff67b4",
    (13, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "56c67e62e141860460733bc7bf6e021f7b1b647bf07e6a05cfed101d17b3ebc4",
    (13, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "0e5ec794a978075d83b362a9d7801d83d643ecc746004a36bd8bfccfb91f398d",
    (13, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "1285ed696ced9bb37d53b8ea970bfdbc7a82c37f2919b7090291ee8e780c3d96",
    (13, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "46336f0a1111255de564c264f2ad4f632a20efb7de98aa8a25202c1da4220514",
    (14, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "9fc946b4010ca8fc4e64c6000183d62bc5c7d45bd26b2141079bd0f889369a44",
    (14, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "62ea974ff037cb860d0349a81a6102f6c7cf65adc31b22a6774077721ba8e7f5",
    (14, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "9b6654332af03ed1c4916d527653c2b38398c2b15dc53585fc40fe36b80ea7b5",
    (14, "generic", "baseline", "ccz_form", "sequential"):
        "a32d0a27bb3ff1c8aa785246fd3677608939df9622ddfbc53d91d94863869464",
    (14, "generic", "baseline", "toffoli_form", "sequential"):
        "08ede31415bb60d56ab2376e4c3e148eaecbf2390e471b2d0922daed5a0a890a",
    (14, "generic", "log_depth", "ccz_form", "sequential"):
        "02a8b35dd58288adcd1a64d38e1d97d96205d0ade4f390dee1f0d852ed633243",
    (14, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "a32d0a27bb3ff1c8aa785246fd3677608939df9622ddfbc53d91d94863869464",
    (14, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "08ede31415bb60d56ab2376e4c3e148eaecbf2390e471b2d0922daed5a0a890a",
    (14, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "02a8b35dd58288adcd1a64d38e1d97d96205d0ade4f390dee1f0d852ed633243",
    (15, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "11f4943362294b1e492842a6caf24eb6b324df421e3f69b5dd055bb13fa182c1",
    (15, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "b037b8933085acea7aef988220fc3f786b6245c9ff64295803f90aae3d3c4c00",
    (15, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "97218222dfa5bc242c2abe14b15436de435b61ccfaa3cbf90dd890e550315606",
    (15, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "125a281135659fdbb919869c8722317228879c746b9c7c9a5ed16b908244eb07",
    (15, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "7aa601f62a75788b69ff2b0a30cdc3e86672f5d825a7bc2cad5f6929ecd74f3c",
    (15, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "adc4702118bb5187f8586750842b63735cb8730539f096a77417e26ca0c8a6a9",
    (15, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "2a02493a083a6eb72ac0fa697d12a4de1e01911766b377c777e8c2aab3e9a174",
    (15, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "63430143bd96d02126e84b4c907c2e8157ebfa8d8e0d96ba9fdb10482a017dae",
    (15, "trinomial", "baseline", "ccz_form", "sequential"):
        "342dfef1ff1b047216af43c014aeefbe2b5763682403b6fb2758b35b1ed1c4d9",
    (15, "trinomial", "baseline", "toffoli_form", "sequential"):
        "696a8e750e8b1d144f1796321dfa18bcc69468e790c8dec6cd78991425ea23db",
    (15, "trinomial", "log_depth", "ccz_form", "sequential"):
        "e374abc70cfd01c34221c388e09bfbe2fe96c13f70a5b155c186c7dbd855e142",
    (15, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "6691b422cbd1f88c6fc8768afc279f1d134745026bf2820cfe191698a2899770",
    (15, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "cb4f4889c589951e1b947022c1522ab050dd1099bb67608c806a44df35e483b5",
    (15, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "e374abc70cfd01c34221c388e09bfbe2fe96c13f70a5b155c186c7dbd855e142",
    (16, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "94a294242056b41a8a4a42ae231f605a29260e88fe5f5e62ce9d13d922a814b6",
    (16, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "c621c6cf7ede310f835ac1fe7e40c48548c577e64fd4cf0626619f2056d86d4e",
    (16, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "1e669cd428bf39a398ee02102a1764d2875f57de95e70fcdc72d1eeb67375bc5",
    (16, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "6d40d8ef5076b243040b1432332b0a6fac1e3b7bf22606809f73973f6832c1e9",
    (16, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "0924d9116308c6bca8469ec9bf70d7315795535ee0c5705fa6d31d229cf412ae",
    (33, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "927d9de01fcc5af86e7d4ef5e4a1f00a0fd91d025dade196409dfa07d16517bc",
    (33, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "d887a4a5e4dd5c02e1a369ea5aa82bb89702280a30a0d4bd676e83c945313f28",
    (33, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "6ba7297609efde79fb7a0e93caf4d7d9e3358f21e1ca958607cea418ec66a68f",
    (33, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "756c8ba9e85295b293989e5bd72439af539095f32928f300afb6464fd1a89943",
    (33, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "f8423c15f5029fd303ba3751b8eb8314d9c27c7a4631ad09f5b8cb233fac4e01",
    (33, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "c76c263a93c740669b4665d23b531df310eebdd1466b2befb5e1d338369aa669",
    (33, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "cde6d7f30c98dfd06e75373f26f1c783ad9b1cd1306ad7ca06480cd578de3084",
    (33, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "187c9a0798ba244f6750c7865f6b67a1a74af6a555d363f09d00cdd05767b335",
    (33, "trinomial", "baseline", "ccz_form", "sequential"):
        "986db76d864ecc96a6aef6b8491a559cf111f7d7bc8071b453b2935e607ad84c",
    (33, "trinomial", "baseline", "toffoli_form", "sequential"):
        "764d59391c84efeb4ab7ea6d7525cc583ecff2d4ea07d45e5970007b3baa24d1",
    (33, "trinomial", "log_depth", "ccz_form", "sequential"):
        "7ba551a2a764f81696418542dfe6c55ad621b1f59ba771572186e905ce598231",
    (33, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "695412598fdedcd8fb945709f33554de89fe7d91edef69a318c3e6ae0ab18359",
    (33, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "032ebb4b3a16a9aed1d7fd048d3b66db3a99977586bea90c8d7762cd26eb5263",
    (33, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "7ba551a2a764f81696418542dfe6c55ad621b1f59ba771572186e905ce598231",
    (64, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "773c11d59af4f051658a00a58e1f61bb1143361cf123fbffcb94ba27e0adf671",
    (64, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "125c371d7eb7efc8498fc25b0f10e1d8872680f3a9fd047c364f8af4fc7e721f",
    (64, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "874821f832d7994943315aaf2078f3fe0a55915724a1bda09f334c70bfc54e1c",
    (64, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "d43da07d9a9403e414b5178a8fcf455d3d24a79dc34451492a36e2b48fafceb7",
    (64, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "2228ab8e4ed2403a1faea232c4bf5ef75bba6ba4ad7559c72f4d740592a9a012",
    (127, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "bb3199e65612b5aba0187b566d82ff45b90128e7ac896c5e171c4a2e3fa1dba5",
    (127, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "9595dff2fb7ca635c6cb3a36b7afa7e8b0bc080a6ae0c017b797526a44a6bebf",
    (127, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "e97b551b7b21252b0c837578672d4427858afcfbeb26f170d9a3c947f7eedccb",
    (127, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "95f88900520f98cc4b321520cb6cbe9ff9bcc8f3db22a2719047bf697b90629f",
    (127, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "6c2525bc0df1011b2950cabda4a5f2164d5556fe868261521bd02b8ec134053c",
    (127, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "ce294ef75cd37b6285754c1c39c3b6350c4be2026fd4fcee9bd0f39ccb9cc313",
    (127, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "7eb7e636eecf3bf6d3ac086bf1fde71959a7c053db469695e84b33c20ae8943b",
    (127, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "32c04ce416487437a8fd8f1925d88544087967603e459782ac4efdd1972d50c3",
    (127, "trinomial", "baseline", "ccz_form", "sequential"):
        "7985f6e7da91e5cecbea32d3ce6c40219625a6e8304507e3752029b904a5796e",
    (127, "trinomial", "baseline", "toffoli_form", "sequential"):
        "6f638b5500b6666576a2d3346e39a907683fd8ade98cfa73f4eba35f7c604fc5",
    (127, "trinomial", "log_depth", "ccz_form", "sequential"):
        "261fee9d64194a9d5e17fc406a0b30b04375da8104f61701eae0b3c75b3d8a5f",
    (127, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "e65bddfdcca9e48ad7eaf3c4f739a39556ad6a1e80a9179a9e202d76843194e2",
    (127, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "568417da4f1ececae7ebb8d2413ca283c79761090ff1bc6ed9fed120513cf06e",
    (127, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "261fee9d64194a9d5e17fc406a0b30b04375da8104f61701eae0b3c75b3d8a5f",
    (128, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "9f20deab8c799f8f4d486b6942619661adbe28f64027e2ecc7808d24cf91af46",
    (128, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "92e921c658c053adb286e56775fb35563012a595f86a083608323e8b44f2b321",
    (128, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "fda9def375a70cc7451a5ecb38dea7aacded1b8ef2e4819f31ba64399844d690",
    (128, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "de21706b010b29a08d256aee856271031ed003e6cb9111983d8185194e1c7eeb",
    (128, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "71ad8f2763ce5694d577b460f338cfc1313d8e1f7e5f0044fbb175d1de141623",
}


# Compact at the benchmark's size: the catalog's generic modulus of degree
# 256, in ccz form and as its `to_toffoli_form` rewrite.
GOLDEN_COMPACT_256 = {
    "ccz_form": "aeb4200bad281d31c02ae212d433e0f1dba2ab1377b53ddfe9b094148182f2cb",
    "toffoli_form": "43eac6739ad2a979326215d06ef2318c0d56269b315e096fe7dad24bd8a2d800",
}


def test_golden_compact_n256():
    (p,) = (e.polynomial for e in catalog_entries(256) if e.family == "generic")
    circ = synth(SynthesisOptions("compact", p, "ccz_form"))
    got = {}
    for form, c in (("ccz_form", circ), ("toffoli_form", to_toffoli_form(circ))):
        got[form] = hashlib.sha256(emit_netlist(c).encode()).hexdigest()
    assert got == GOLDEN_COMPACT_256
