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
        "d310753dbea1a4061aa1630b4c0f088ee507a112360724d5ad309cd332004618",
    (2, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "0d25b8f009a4c4a1ce3a0d2d6fe0503e3daa1d3cb469df0037fdf052eb6da297",
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
        "5b7caaed1fe0eea45ad531db37e7230a0283279a3a75445def145c34df59a93b",
    (3, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "93e74d9d2c4f672b3bf9ff8c3a2687ab26fa658cc35eed4db8ae6028daad4f6b",
    (3, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "5af6c62732b9b43bc8b347a9886bbfc81e227a51e235bffafdacadf6151c9c04",
    (3, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "e8e849538c6a2e61af5167948d59a2eabcd7833f88db50c1ab003b75f9f6c0c6",
    (3, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "7f906c0edd8e127f5604f795f9061c2e88440f3f516e6b7202d69ed13b65bceb",
    (3, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "35306cd2e313749b958d39c9eeed473acab82dee7f744e81c80948fa500818a0",
    (3, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "e45b9879f10ecd4325aceb54cb56015d7dd28e9baf44282978f19181be24a8ad",
    (3, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "f8f7577bf76ffedab5ffd38c614809533f88e84506550e669ecf4f0e704803f6",
    (3, "trinomial", "baseline", "ccz_form", "sequential"):
        "1b41f07bb52e7a9ebcdbf2becd9cecd59ddd950e7da6696356815d2337de7280",
    (3, "trinomial", "baseline", "toffoli_form", "sequential"):
        "8ea4f9257e21f5485d139f1ddb73037b7579c7c7fe8dc2f360a5180b51a0e357",
    (3, "trinomial", "log_depth", "ccz_form", "sequential"):
        "a994b6c306eddbc0aa82e2d79b2d06df076a89c5b5556138705c5442e5bf22e6",
    (3, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "1b41f07bb52e7a9ebcdbf2becd9cecd59ddd950e7da6696356815d2337de7280",
    (3, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "8ea4f9257e21f5485d139f1ddb73037b7579c7c7fe8dc2f360a5180b51a0e357",
    (3, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "a994b6c306eddbc0aa82e2d79b2d06df076a89c5b5556138705c5442e5bf22e6",
    (4, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "6e8fa8750bbe2efaf57bdcc77323b6334e737c35807f03c0f61369eee33c84a6",
    (4, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "f60546d53a390fa61f4329ef81bd1946462a15143131c87844912dc0a01d0f64",
    (4, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "8d9b6611a573b4ccef4764408b1554a7104e9a70a7cedcfdf34332d2f119db2b",
    (4, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "70ce641f55807999cec5af797a0c8d71d78e9b117964d82fac8daea92537c3eb",
    (4, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "9a007d4292852598a0b007a49ce4773b2cf2ddcc6fa55b03b7d10381d12adaae",
    (4, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "64d7a141acf7aa9c19a66dcf153205502df49e6dbc7c0d8f83257305403df4d5",
    (4, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "f5d51963d35a74c6413b5244f0bf85604c7130a68431806b968190e993ffd5ef",
    (4, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "643c80ebeb7acd2ac11dd9ba3d2f4769f731523d5e84b2fe0364bbd201286ea7",
    (4, "trinomial", "baseline", "ccz_form", "sequential"):
        "adaf12b445d98f70abb1a938d433cc04168674e830809fd6044483d0ae934bd9",
    (4, "trinomial", "baseline", "toffoli_form", "sequential"):
        "2df532316434475a036503ea6f2525bf2b1ed154203a30059f187cf61a189750",
    (4, "trinomial", "log_depth", "ccz_form", "sequential"):
        "940308d337cc6c35ece54d7fe0717aeb8175f10983245ce6897975eb4aa424b3",
    (4, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "adaf12b445d98f70abb1a938d433cc04168674e830809fd6044483d0ae934bd9",
    (4, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "2df532316434475a036503ea6f2525bf2b1ed154203a30059f187cf61a189750",
    (4, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "940308d337cc6c35ece54d7fe0717aeb8175f10983245ce6897975eb4aa424b3",
    (4, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "1e8fb7474455cf67c51779a18e6d54eadae9481268d3772729567c67944db832",
    (4, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "acdc01f2601d4db214e0510642e94a330bf96b0deab7a1e7251c28d5ed4759a9",
    (4, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "5bb246bb15223753a01fd41f1c930ee3c43c254ef0719af53727741d21523116",
    (4, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "f018a49d0766ee08d2e7949256d8dadfd75b5e4471d7cd03079221d59746f9b0",
    (4, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "06c212a316a9806eb9e5b830a93dbcc9a5baa3603d90849d10dc665062119c0e",
    (4, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "0e09c872a7ddc20ff73c2066bee5a1c0cb78ef8ff835b5593ad13aaa2db1f08d",
    (4, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "856dea520af18bc7173cf909d50bd4d1af3fcb98e47aee6d232163c2325b84f8",
    (4, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "47a6a77c7630c9971154026f6bf7e419f6540eafd54b59f9bb908f2808bd82b4",
    (4, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "74165b885c69ec70abe772ac11467c105073d851d11d0c758adb60f5ec5cd581",
    (5, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "e23f08e6f3061703270c1bd2d89e580ff52a80f043918619a48cee0fa9089999",
    (5, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "f9c0f6219b445a04ab24b0fbd48e1cad1f53b7d06068090479248819830f35fc",
    (5, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "a773eae304f5b8bfb5e08b00152340d4b77fcde3aacd4335d20069ea737e66ae",
    (5, "generic", "baseline", "ccz_form", "sequential"):
        "a7da7f399977709758392393d7721af7defd4537bd275e13e401bba86fa9f605",
    (5, "generic", "baseline", "toffoli_form", "sequential"):
        "abd7ec47706052d475ab907bac714d1f9d61f4a4e5b7c4a44f2959a7270252c2",
    (5, "generic", "log_depth", "ccz_form", "sequential"):
        "4ab83e8cb57ecc528a27e348d8c14aa5f0fb73331be530e3e16dfce3cff55a47",
    (5, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "a7da7f399977709758392393d7721af7defd4537bd275e13e401bba86fa9f605",
    (5, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "abd7ec47706052d475ab907bac714d1f9d61f4a4e5b7c4a44f2959a7270252c2",
    (5, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "4ab83e8cb57ecc528a27e348d8c14aa5f0fb73331be530e3e16dfce3cff55a47",
    (6, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "60966f85aa10488031528f0efb189e446a4a9749bca2a32cb2d035cd06afc676",
    (6, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "cabb8b0c13b9bf4f12de64202eabba37ff55536ae5712fc508925adf08ddcca7",
    (6, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "6fb9d96ad135110ad8b9d55d5ad15f4a5c09cec0c4c1e34a39e45814c161d907",
    (6, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "44ca9ac9edf15d9a9d8674610413c9f6606f88efb7c049159e3212bef53b32d8",
    (6, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "7e4c63f58a9bea229cce1e33a9988658da60aba5685159f7aa732e6686dfaafb",
    (6, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "a1a60396cd4b74e9c406a49ab7b67523b30ed32f78d7ddb341b54bc8baf516da",
    (6, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "33506ba745a46661dab4868ef1010fdddd288f9619867304389932004118589e",
    (6, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "7c624a0b3b1d0a218933b1638402b4402ea9b064ed69eaf2655a98496a9703ee",
    (6, "trinomial", "baseline", "ccz_form", "sequential"):
        "c1b10666514d51f3c39ebabf049c6721a6436b462e074a24f9d37c8cf341f1c2",
    (6, "trinomial", "baseline", "toffoli_form", "sequential"):
        "cb07f46081248b205832ef62261ec108bb57d60a3ba04a7bedd6eeec824854c7",
    (6, "trinomial", "log_depth", "ccz_form", "sequential"):
        "671beef6aeefcec8ec40de58e2ff6ee11e5826e5142f5531e2f9c947d4068f4e",
    (6, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "c1b10666514d51f3c39ebabf049c6721a6436b462e074a24f9d37c8cf341f1c2",
    (6, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "cb07f46081248b205832ef62261ec108bb57d60a3ba04a7bedd6eeec824854c7",
    (6, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "671beef6aeefcec8ec40de58e2ff6ee11e5826e5142f5531e2f9c947d4068f4e",
    (7, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "eda15ebd2186aabe51e075115c4e53b23555ac5842e41c0d5a8b8ca77f50c1d1",
    (7, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "beba0b5bba97f50c94e3b9a21edb8392413bdbb8644e7b675e7c3c8f5e4fcfd9",
    (7, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "4bbc9fea18fe3c7211bd4d0051c7c29fe33a107d017edf6fbc7493ac33401573",
    (7, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "956a5e9b6124dae8d0b63ad3b4ff37843e59fd4be40a742c4b652f64dc88dc70",
    (7, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "84bdd5f856184d2fa6b62540c377e659aa086e8435f0086674d88232a6286dad",
    (7, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "72add01de957c36ec55bc8885c17e8175e787649502ba3dd6a5cd3a992cb8830",
    (7, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "2af175b892475d83cc4d6fd5835e63c305fd7b268acb4c0ebb100d9fe006442c",
    (7, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "9ed303da4da16cc5f896d440aa8f55fdc9b3e8e31550934871c780ed731070cc",
    (7, "trinomial", "baseline", "ccz_form", "sequential"):
        "d0d3e0880c93c05866264ca29ab2bd789ada12be05472b453e41f6e9fff66ac8",
    (7, "trinomial", "baseline", "toffoli_form", "sequential"):
        "37b69f946e520437361e3dd074ee0d531754bcb35396efd61bfc723cdb6a6509",
    (7, "trinomial", "log_depth", "ccz_form", "sequential"):
        "efeb598e701f8fef0a74ecd02657623f622d6ad8ed59c49f274a4ab3c0afc4dd",
    (7, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "d0d3e0880c93c05866264ca29ab2bd789ada12be05472b453e41f6e9fff66ac8",
    (7, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "37b69f946e520437361e3dd074ee0d531754bcb35396efd61bfc723cdb6a6509",
    (7, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "efeb598e701f8fef0a74ecd02657623f622d6ad8ed59c49f274a4ab3c0afc4dd",
    (7, "generic-pinned", "compact", "ccz_form", "prefix_ancilla"):
        "f5dc7b0c6f39d22439a2c54583a2fe8d9a4eef05566aacbd328b6041e7c2b4c9",
    (7, "generic-pinned", "compact", "toffoli_form", "prefix_ancilla"):
        "c9761d03d348ee6942a5929eec04188ede4a2ad14a3671e61cdaae945ea1ad98",
    (7, "generic-pinned", "linear_depth", "ccz_form", "prefix_ancilla"):
        "bc13524b0029ac8ac95a6911994515a5aba69bb28f007312da3606e59dd237ad",
    (7, "generic-pinned", "baseline", "ccz_form", "prefix_ancilla"):
        "5cbc5251855d75c46e1c4ee8cf1e1d9c941af950c3e7fa58ae5d686464f0d804",
    (7, "generic-pinned", "baseline", "toffoli_form", "prefix_ancilla"):
        "2d811b55e1683b11ee74521461b9b44889267784a4bb40efeebc60fddf278692",
    (8, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "b986f678e99ba9e4764eb1b5cb6d98234ac66863db21f2b50afa6b44380c2433",
    (8, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "703f93d007b4e86d951a74e01e295b232e6befd5689bcb59cfa6282d592a6d3e",
    (8, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "9aafcb0471954e0319f10b68ce69515547902306ac20bc85e095b01b6a525ebf",
    (8, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "e0f365e4cbd2731ad1e46d92da2f7b7e0a1edb69af35343c0bb2885814320c3a",
    (8, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "dd7fadcb69f12cc5e4ba5316edf1d9eb468ebc0438e3f8c9e20193d82ed351ff",
    (9, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "a198e2c49c5b93e69ee978231735e313ab43541cb038a3a875d38c9cb5cc418d",
    (9, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "48619dea0ee4ea10d84b7cb68ea08ae36a75b959a41e2dd55137411cd1103806",
    (9, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "a3471d8f3717c4738f83ce46e05468297288b4b9b528c084276850339440ad7d",
    (9, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "33dd0aa6dbe349f795c4c26895281d55f697c1ac5a6d68d263d00bb2aaef6d4d",
    (9, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "9b60d4963bbcc7a27a71f8a392f9a04c44fd92a7f92f56c390b7bd7168b36bb2",
    (9, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "8ab72b4092d26e7cd2c40fdf3cb51bf6ac1eccc047107c574ffb6bd467cd3c53",
    (9, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "9d628fa7cb9329d7795db225437b7c893aa76c0fd697e0e9f007cf99dff3d766",
    (9, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "cade012268564020622a04b01f1ebc8c92a9c38eba74ed767734472a898d576b",
    (9, "trinomial", "baseline", "ccz_form", "sequential"):
        "cb8d0323adbe767695bf28e4592b54390b86da9f7547d40d75a80562f95f703e",
    (9, "trinomial", "baseline", "toffoli_form", "sequential"):
        "02d20324b7087cb369dcad1c08d83ec5b69f3de94257c7d50dc9091de7cb7c1e",
    (9, "trinomial", "log_depth", "ccz_form", "sequential"):
        "840a6b5e4046761e3481be761b050d08d16e4280baba2ff6cc0f6d1a727473b7",
    (9, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "cb8d0323adbe767695bf28e4592b54390b86da9f7547d40d75a80562f95f703e",
    (9, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "02d20324b7087cb369dcad1c08d83ec5b69f3de94257c7d50dc9091de7cb7c1e",
    (9, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "840a6b5e4046761e3481be761b050d08d16e4280baba2ff6cc0f6d1a727473b7",
    (10, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "a64b6855186cfc58e6bc82f7f3b4d5b73f148b2780c62387ed06dba45b2e33d4",
    (10, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "d07a722f5f81d88831a334a66a81934f72780bb5e7092baef7017809eb6caf9a",
    (10, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "d28df3277ff3e605141a34da9c161984bf374b55167eca20f0b09d11f2de941e",
    (10, "generic", "baseline", "ccz_form", "sequential"):
        "2ddda0e7f9b056c7f341e9beb6c66182d5b76b8ea86f288bb9a05fe191d3048d",
    (10, "generic", "baseline", "toffoli_form", "sequential"):
        "782702bdf6fcea808f0c4a9bee4ad6057b68a97465d01a242784872b2f7da570",
    (10, "generic", "log_depth", "ccz_form", "sequential"):
        "93f6e00f75c7592fc7ec449f65269f9f093be50a3636a710e66ff12b8381f5f2",
    (10, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "10e177beebb819a0a510309871ce3bb7cc2fbd5563be1041d2a6414fd1b9aba5",
    (10, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "8716b141eab3365dcadf1b66acdbeff841d016f220225faf1e84a17614ead2d3",
    (10, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "93f6e00f75c7592fc7ec449f65269f9f093be50a3636a710e66ff12b8381f5f2",
    (10, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "2c99163577eecd00365f2a74f4f9e5a7b018011f611df7f212d3fccb06012937",
    (10, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "b8699a259538e6aee6bffac41ae95905ef17f27db1f3ea7d9b1394b3806899dc",
    (10, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "3fa9f7791fb708066e58b7fd73210da053a75f20350805bedfc1154270e704cb",
    (10, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "f7bbd66b721dc55672febf801044ce7c7fb14c930827603777b555d4f3d5f478",
    (10, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "8cfa892f9818b190fca833224fd7f06ef622277781b60c70426cb62a06417f1b",
    (10, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "ad7d7251dd2602597db89b54622dd3e05f1126b0c35b137fa69e7f82d7eab7e1",
    (10, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "2a258aee7ec9bfc99e15f159db2b4ae5649b7c39edc30300b22c9b86e05e3618",
    (10, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "800bcbeb386a8e597515755ab8deb81aeee16a3610f7ea90a450c12a2fac0e9e",
    (10, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "2069d124cd31f67241db552b734df4f48312eed1289d14981a1615bded755e0f",
    (11, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "000389ffcc7fd961c38f126b9bc82a558859ecc0b8f7f40ba858638443e6f8b8",
    (11, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "66812d2a1dd3627245fcc25b0f989ce3653d8d8617dfc2344b99c6330b96279c",
    (11, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "e1cee530f427d50dd212dbda03196336017fb079d80bd89363e49f300b4c2dea",
    (11, "generic", "baseline", "ccz_form", "sequential"):
        "c5a3827d0c0fe9feafa70d720307b54f77642599042622df53aac7f8f67d6eb0",
    (11, "generic", "baseline", "toffoli_form", "sequential"):
        "96aea62cb4462e1802fbbde4642373851806f3032cc7fae647718813985f1374",
    (11, "generic", "log_depth", "ccz_form", "sequential"):
        "b14c0a12f491d18aa2497700419371204dac89803ea5a6c217ae7b2b1d161c44",
    (11, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "ae7cfc0c26bcb1e5bc2d02dbc4f13fb4871e01a13bef9dc3dc5b3281cafaf84b",
    (11, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "dfc6392a69c97a9043cfa0678114d452dfc2477130187aed0e906e8a5bed6536",
    (11, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "b14c0a12f491d18aa2497700419371204dac89803ea5a6c217ae7b2b1d161c44",
    (12, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "783237732d1623c3c9cbb75e57d3ae9a15551d659991fcae47d40fa9c24d57e9",
    (12, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "826939fc3972a0ab1801b2e3af602fb4f0cc1a9d11c5d4f4dec73c697b941e27",
    (12, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "3c0afaf8a30accbdd42bd28fadcd5f4f8779184bf878ef80f88335ec206d163a",
    (12, "generic", "baseline", "ccz_form", "sequential"):
        "9cfd611a6068aed83055c89772c95295da67d77b48a6801c50114610e914f14c",
    (12, "generic", "baseline", "toffoli_form", "sequential"):
        "a3381df0d628b726ea453c22feb593bb212eb1686171f0b80a0cee5124a3c16d",
    (12, "generic", "log_depth", "ccz_form", "sequential"):
        "780d1da074fbd69436b2a4567c9aab82181cf4afb3c57f4b6104a919165e58cf",
    (12, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "b2f4265963b9d4d2fe5f5b1e6ce34369b1279a1d3657c7adbcc720982afcfe9b",
    (12, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "d94295866f1eb190267aa8c9e434b4a38f7146a1d1f877f96d6ef7c8f89321ab",
    (12, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "780d1da074fbd69436b2a4567c9aab82181cf4afb3c57f4b6104a919165e58cf",
    (12, "equally_spaced", "compact", "ccz_form", "prefix_ancilla"):
        "2ad4ac420c78e04997b3aa2e9a7f490e1eeb0c7952ed8564ab424a55c81449f8",
    (12, "equally_spaced", "compact", "toffoli_form", "prefix_ancilla"):
        "10c3d8f2f686aaadbde923043bef34558dc17ba482fa8573ada300d2d8416884",
    (12, "equally_spaced", "linear_depth", "ccz_form", "prefix_ancilla"):
        "46eff80cf883b15bf8ce3a3f68b3019b59431b4c8699f2113fae10768c37cfaf",
    (12, "equally_spaced", "baseline", "ccz_form", "sequential"):
        "9a8d21edf7d56ceceb1107da40a1ed9508318696fda4dea934075e160e98f032",
    (12, "equally_spaced", "baseline", "toffoli_form", "sequential"):
        "9ded8817649a30e242f4ca27add754aceceaeebbd3715f575bbcfbb102168b64",
    (12, "equally_spaced", "log_depth", "ccz_form", "sequential"):
        "c1d9d3ad099b6a7de277613d2483b984d53146f4891f90a6b80be39c2c19ea56",
    (12, "equally_spaced", "baseline", "ccz_form", "prefix_ancilla"):
        "86743fe0d91a35893160bda930e75c8a44ea22193bef2799fc5a0810fbd9b68f",
    (12, "equally_spaced", "baseline", "toffoli_form", "prefix_ancilla"):
        "219bd1276e87c9e7d0ca175cdd9950f608414d370cc19b53a09e6c5ad3cbfd6d",
    (12, "equally_spaced", "log_depth", "ccz_form", "prefix_ancilla"):
        "d5cd5db801117e60018101de915e983fcfe98e8335f31c5b3c9c246c6d6f9533",
    (13, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "bb7d9c0d4565aa53ecb0175bb643c4da0d1497d7ea7b5f89d7899d0e47d9e7ac",
    (13, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "364af8c4b5596fc4d565886a223b8f827f613eaabe6259623c3c75d33ffc206d",
    (13, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "305e87c42e006dc0f3014676d0d95e52836fb0ccc2340cbf20fa2209fe8b9600",
    (13, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "fbd59fb078b322250c6aed9e3114b904e8074691120c13b3335b53f9ed561c21",
    (13, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "f5eb8bf11a47e9ea5144449f89e774866951d762a43f5149e40197ba0f6c2701",
    (14, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "95403f2b5cd0cbc54630e719cd2443eaeee92c7d7fbc96bfe6b539882aa876a4",
    (14, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "fd413653312f9654bbdd7c2d4a315947a7fc77fb4c2f164cd059f1f8d61dcc75",
    (14, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "19856da9a16233fe64e19d54ae24c75631c58c5c68239c8bd7c6d9e17884b4c7",
    (14, "generic", "baseline", "ccz_form", "sequential"):
        "65a9cc644ed34440391de85ab3e9160e906dd6e1f1ebc7257efc941966e1e15c",
    (14, "generic", "baseline", "toffoli_form", "sequential"):
        "14ca377087b1d7f2b098ca41dca3fe4b29ae2d969639fcfd73f78d9419d9c742",
    (14, "generic", "log_depth", "ccz_form", "sequential"):
        "0ee689329833d4f95f552969f38b136ee2060b7d0f093b886f6c18701f164eb0",
    (14, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "65a9cc644ed34440391de85ab3e9160e906dd6e1f1ebc7257efc941966e1e15c",
    (14, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "14ca377087b1d7f2b098ca41dca3fe4b29ae2d969639fcfd73f78d9419d9c742",
    (14, "generic", "log_depth", "ccz_form", "prefix_ancilla"):
        "0ee689329833d4f95f552969f38b136ee2060b7d0f093b886f6c18701f164eb0",
    (15, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "e9ca1b84cfb4fe657ff9e67496dd56ec7ca845468e3c570e2eeb9abb0f9ac47f",
    (15, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "e369252ece4dc0c7ced957c912fc451cd30eb43f7b62b009f1fe842bcf9dec8b",
    (15, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "405f72385798d7fe9c8bf2cdcce6ca7e32184931f856f1ce9c696e60bb43ded2",
    (15, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "c8e58176e56e9b3cc8d6cb879efd89ca237174d0140455bf28fead9f11d6ad3e",
    (15, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "e3489b56c3d0c1b58fde574331ea7be0195bb1806271c0efe0109d2898efe215",
    (15, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "ce52f7b828669b92d98a2d004272f6b747234344b92d720666b7d08a0b51c1f9",
    (15, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "a52d36446ec64b22d633e4a80241da340e58aa9f618edb5eea6663cdc47e34ea",
    (15, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "e3c37ba06e8a83aa4dda196742c96de012aed8165994161b3c678e9f6b77f6eb",
    (15, "trinomial", "baseline", "ccz_form", "sequential"):
        "2fad240f7ef1cccb6d9cb285f0379fea30d27fea610057d2bcffcad8e1f01b6a",
    (15, "trinomial", "baseline", "toffoli_form", "sequential"):
        "7a5404e43ee8c285c2af224507be7a9776a3abbf54ab93d8f5a88740be58f721",
    (15, "trinomial", "log_depth", "ccz_form", "sequential"):
        "b2bda1ee406cca7cd816c75ee786e3ed6962ce9f212def97b897dad247923037",
    (15, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "0fc47377a1459956ca9238b2b0e2727b540c5faa3854162159f40824753ca385",
    (15, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "4f6f726758562750463aa55f6b294af4989d9565e76e43d7bd3b84c69e2060f2",
    (15, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "b2bda1ee406cca7cd816c75ee786e3ed6962ce9f212def97b897dad247923037",
    (16, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "bb8c91c916e3e32dfd3296f8fe425e06adc6a2e364623a7c57879c6104faf991",
    (16, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "769570b3e262efbdf1199c02ab5d48b9243143a60405337406936f41cb6f6b79",
    (16, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "1e669cd428bf39a398ee02102a1764d2875f57de95e70fcdc72d1eeb67375bc5",
    (16, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "c0fe6d1e7073deb1ebaa0725386814ee012c89ac692be179cfd6e739b2f877ab",
    (16, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "6e93db0410597d0ecc18394d0249d859d439aa71bca0bc3f8afe4649e90e2c62",
    (33, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "fad4fe9946bb3c0dacf6046f2cffec59fa1a1629965f06ce464d2cfea6f1e229",
    (33, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "9c5b046948e3673dfc34831f75cdc5f2546bffaf2f83c77fb153da46945880e3",
    (33, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "554568d09bbbdd47d3c280c4b225bafa18f63e3e7ce9513f6af69c5055630fef",
    (33, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "40bfbc7374da0e2cacd47defdc1f8b2dc2424eff4d996ad5a8d03bc3ec649fe6",
    (33, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "ca5c3bc9a4033a233e57a57740d46ce3c90212a59212c329a8d2877ef170fc23",
    (33, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "ea02b4755ca84bdab57ce74ccc7bc7f244854d2a3ea8b1dccd20765f7541b951",
    (33, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "37c838429eb41b64960b8e1d13c03f80a996ae64b14e7618242c75bdd5c10537",
    (33, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "0478298fa2872258a392f23d59607d5c4f1349ee2026c89c79a1b03fbbae1014",
    (33, "trinomial", "baseline", "ccz_form", "sequential"):
        "7d61896f1d9e83609ce53f19d7644cb0d377bd9fcc187ad7198e903c8348ced1",
    (33, "trinomial", "baseline", "toffoli_form", "sequential"):
        "a13e95a861b9817adf875803de1b56e23ae277b4b7be5ee21dc453ab53cecf34",
    (33, "trinomial", "log_depth", "ccz_form", "sequential"):
        "6b6c13d02c1a680410dc9d437a94c037e6ac2389641d749f78495c07db5d27a7",
    (33, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "3b96c2cce0f9e2eaefabf26534cad3ded2bc591bec7fc4f4ed67b2abfc095da7",
    (33, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "388126c9127d02b299ec7c4349df17c329ee34feebe7f21689f8e8e493140357",
    (33, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "6b6c13d02c1a680410dc9d437a94c037e6ac2389641d749f78495c07db5d27a7",
    (64, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "394a5cdf16f876aacd93f434c603ea9b97af7a7c62384c5a2b59ca8b273d9a83",
    (64, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "1d9d99f25fb3614c07878542cf6d0c36a1c4796a6cbbc6508676e28ab366da13",
    (64, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "874821f832d7994943315aaf2078f3fe0a55915724a1bda09f334c70bfc54e1c",
    (64, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "e65f240153fe3e85e5a7e4b7bb4608f84619ebe7d036ee0cb74592418664260b",
    (64, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "7a41cbaeaa371437a4da0a526673c34332bba34054f94c8baad3306478ee4aa0",
    (127, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "c4ce203a4bf6e14ade87285d8f894d65a85d5c9bb1d40c6199df7df044e671e0",
    (127, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "c1d8f7e91e1ec9f1fc743003e1dc784699aa51a8b64abb03a4bad5f2fde6cea8",
    (127, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "d45fedd22266310716edcc1fc0171d2a4f34e5c3a49ffbe1ce8e780353a9d968",
    (127, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "94d3a5b0e054b2a800544c22630b8e59486421d356f7cfa881a5df0ac1177e3b",
    (127, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "3811c7368a424198b82f3663ba1fb05704e34cf7315512cd9ab8d211579ba8cc",
    (127, "trinomial", "compact", "ccz_form", "prefix_ancilla"):
        "33d54be35f303bf1745707369b9355ffe15b6fc97d2bc984cba07fd791b65256",
    (127, "trinomial", "compact", "toffoli_form", "prefix_ancilla"):
        "e03496b92e1db83a73eb4d5a5ee33b58f59b064afb7e83746580b0d9ebaef08f",
    (127, "trinomial", "linear_depth", "ccz_form", "prefix_ancilla"):
        "2270427c0fb2bfa15deb3974b370aa61554eaffe0ac63bd4bd868a3adb4111ca",
    (127, "trinomial", "baseline", "ccz_form", "sequential"):
        "f6eeac8ee046480ec08c9cc69fec846b3f90134c6b91065bb29d58cd59a88eae",
    (127, "trinomial", "baseline", "toffoli_form", "sequential"):
        "381413908a2fc13e4cd2b1df4182f94462ffb187c08d10061c80cebaea4f6093",
    (127, "trinomial", "log_depth", "ccz_form", "sequential"):
        "53b1c95ed7de18f1bdd7084fb3f24aa2dd1a891663a9fded3fb4b5e6e2ceb11f",
    (127, "trinomial", "baseline", "ccz_form", "prefix_ancilla"):
        "33f4397b90aaaba4ea6aa16aeac90dd5f29263727db52b94926c61e750a634e7",
    (127, "trinomial", "baseline", "toffoli_form", "prefix_ancilla"):
        "383f6d05e580bc56f9f4863940ecdf8cb80c5b2f8649ffea4b25bceb69f9390b",
    (127, "trinomial", "log_depth", "ccz_form", "prefix_ancilla"):
        "53b1c95ed7de18f1bdd7084fb3f24aa2dd1a891663a9fded3fb4b5e6e2ceb11f",
    (128, "generic", "compact", "ccz_form", "prefix_ancilla"):
        "cddf553b4648f7840afe11cdf6611937c95f98b33fb8067c2f287d03a8f8e7ea",
    (128, "generic", "compact", "toffoli_form", "prefix_ancilla"):
        "c82fe68af95fd2a1406bbf43deff24d5f61d4ce208071e48acf6c0740ffec28e",
    (128, "generic", "linear_depth", "ccz_form", "prefix_ancilla"):
        "fda9def375a70cc7451a5ecb38dea7aacded1b8ef2e4819f31ba64399844d690",
    (128, "generic", "baseline", "ccz_form", "prefix_ancilla"):
        "fb5bcdd74d98eb36990f12716bfca0983632ad35c583a7bfa09029b1daa95f5c",
    (128, "generic", "baseline", "toffoli_form", "prefix_ancilla"):
        "c518ecc2ef38dba024e1c8a35f91946d4bc73a3e434bed8d4745a5be113d2e71",
}


# Compact at the benchmark's size: the catalog's generic modulus of degree
# 256, in ccz form and as its `to_toffoli_form` rewrite.
GOLDEN_COMPACT_256 = {
    "ccz_form": "35c267eac5effd6ddb56e84bb32359dfceea3c87451e083d48ae083d27f699df",
    "toffoli_form": "36c66aa38875415c863bbe9d99cffaf41fd2a7cb61fa549bcbc3c26c7b2ce5dc",
}


def test_golden_compact_n256():
    (p,) = (e.polynomial for e in catalog_entries(256) if e.family == "generic")
    circ = synth(SynthesisOptions("compact", p, "ccz_form"))
    got = {}
    for form, c in (("ccz_form", circ), ("toffoli_form", to_toffoli_form(circ))):
        got[form] = hashlib.sha256(emit_netlist(c).encode()).hexdigest()
    assert got == GOLDEN_COMPACT_256
