"""Synthesizer tests: variants, fragments, ladders, counts, depth shape."""

import gc
import hashlib
import importlib
import math
import random
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest

from gf2kq.catalog import catalog_entries, catalog_lookup, family_degrees
from gf2kq.circuit import K_CCZ, K_CNOT, K_H, K_TOF, Circuit, Gate, RegisterLayout, compute_depth
from gf2kq.errors import FormError, InputError, SynthesisError, UnsupportedFamilyError
from gf2kq.gf2 import BinaryPolynomial, build_reduction_matrix, is_irreducible, transpose_apply
from gf2kq.netlist import emit_netlist, parse_netlist
from gf2kq.phasepoly import LinearWireState, extract_phase, target_polynomial
from gf2kq.simulate import simulate, to_toffoli_form, verify_multiplier
from gf2kq.synth import (
    _RESTORE_SIZE,
    LADDER_STYLES,
    SynthesisOptions,
    _cprime_gates,
    _forms_recursion,
    _gauss_jordan,
    _InPlaceGroup,
    _reduction_stage_gates,
    ccz_count,
    ccz_count_bound,
    cnot_ladder,
    cprime_ancilla_circuit,
    equally_spaced_split,
    karatsuba_core,
    prepare_parallel,
    prepare_second,
    reduction_cnot_equally_spaced,
    reduction_cnot_trinomial,
    synth,
    synth_baseline,
    trinomial_split,
)

P2 = BinaryPolynomial.parse("2,1,0")
P4 = BinaryPolynomial.parse("4,1,0")
P7 = BinaryPolynomial.parse("7,5,3,1,0")


def _opts(variant, p, **kw):
    return SynthesisOptions(variant=variant, modulus=p, **kw)


# ---------------------------------------------------------------------------
# families


def test_family_classification():
    assert trinomial_split(BinaryPolynomial.parse("9,7,0")) == 7
    assert trinomial_split(BinaryPolynomial.parse("7,1,0")) is None  # k=1 excluded
    assert trinomial_split(P7) is None
    assert equally_spaced_split(BinaryPolynomial.parse("8,6,4,2,0")) == (4, 2)
    assert equally_spaced_split(BinaryPolynomial.parse("4,3,2,1,0")) == (4, 1)
    assert equally_spaced_split(BinaryPolynomial.parse("6,3,0")) is None  # k >= terms
    assert equally_spaced_split(P4) is None


# ---------------------------------------------------------------------------
# ladders


def test_ladder_sequential_gate_list():
    assert cnot_ladder([0, 1, 2]) == [Gate.cnot(0, 1), Gate.cnot(1, 2)]
    with pytest.raises(InputError):
        cnot_ladder([0])


def test_ladder_running_parity_exhaustive():
    lay = RegisterLayout(n=3, phase_wires=frozenset())
    for style in ("sequential", "prefix_ancilla"):
        circ = Circuit(lay, cnot_ladder([0, 1, 2], style))
        for bits in range(8):
            state = [0] * lay.total_wires
            for i in range(3):
                state[i] = (bits >> i) & 1
            out = simulate(circ, state)
            acc = 0
            for i in range(3):
                acc ^= (bits >> i) & 1
                assert out[i] == acc


def test_ladder_prefix_matches_sequential_and_depth_bound():
    rng = random.Random(4)
    m = 64
    lay = RegisterLayout(n=m, phase_wires=frozenset())
    wires = list(range(m))
    seq = Circuit(lay, cnot_ladder(wires, "sequential"))
    pre = Circuit(lay, cnot_ladder(wires, "prefix_ancilla"))
    for _ in range(200):
        state = [rng.randint(0, 1) for _ in range(lay.total_wires)]
        assert simulate(seq, state) == simulate(pre, state)
    depth = compute_depth(pre).depth
    assert depth <= 2 * math.ceil(math.log2(m + 1)) + 2
    assert depth <= 14


# ---------------------------------------------------------------------------
# reduction fragments


@pytest.mark.parametrize(
    "exps,builder",
    [
        ("9,7,0", lambda: reduction_cnot_trinomial(9, 7)),
        ("5,2,0", lambda: reduction_cnot_trinomial(5, 2)),
        ("17,5,0", lambda: reduction_cnot_trinomial(17, 5)),
        ("8,6,4,2,0", lambda: reduction_cnot_equally_spaced(4, 2)),
        ("4,3,2,1,0", lambda: reduction_cnot_equally_spaced(4, 1)),
        ("12,9,6,3,0", lambda: reduction_cnot_equally_spaced(4, 3)),
    ],
)
def test_reduction_fragment_columns_match_q(exps, builder):
    p = BinaryPolynomial.parse(exps)
    n = p.degree
    q = build_reduction_matrix(p)
    circ = Circuit(RegisterLayout(n=n, phase_wires=frozenset()), builder())
    for j in range(n - 1):
        state = [0] * circ.wire_count
        state[j] = 1
        out = simulate(circ, state)
        assert sum(out[i] << i for i in range(n)) == q.column(j), (exps, j)


def test_reduction_fragment_prefix_style_equivalent():
    # k close to n gives long ladders, where the prefix network wins.
    lay = RegisterLayout(n=17, phase_wires=frozenset())
    seq = Circuit(lay, reduction_cnot_trinomial(17, 15, style="sequential"))
    pre = Circuit(lay, reduction_cnot_trinomial(17, 15, style="prefix_ancilla"))
    rng = random.Random(6)
    for _ in range(100):
        state = [rng.randint(0, 1) for _ in range(lay.total_wires)]
        assert simulate(seq, state) == simulate(pre, state)
    assert compute_depth(pre).depth < compute_depth(seq).depth


def test_reduction_fragment_prefix_depth_logarithmic():
    # measured over family points; the constant stays near 1
    for n, k in [(257, 12), (127, 7), (509, 24)]:
        frag = reduction_cnot_trinomial(n, k, style="prefix_ancilla")
        depth = compute_depth(
            Circuit(RegisterLayout(n=n, phase_wires=frozenset()), frag)
        ).depth
        assert depth <= 2 * math.log2(n), (n, k, depth)


def test_reduction_fragment_family_guards():
    with pytest.raises(UnsupportedFamilyError):
        reduction_cnot_trinomial(5, 1)
    with pytest.raises(UnsupportedFamilyError):
        reduction_cnot_equally_spaced(2, 3)


def test_cprime_ancilla_circuit_counts_and_semantics():
    q = build_reduction_matrix(P7)
    circ = cprime_ancilla_circuit(q)
    assert circ.counts()["CNOT"] == q.popcount() == 20
    rng = random.Random(12)
    lay = circ.layout
    for _ in range(100):
        c = tuple(rng.randint(0, 1) for _ in range(7))
        state = [0] * circ.wire_count
        for i in range(7):
            state[lay.c(i)] = c[i]
        out = simulate(circ, state)
        assert tuple(out[w] for w in lay.anc_range) == transpose_apply(q, c)
        assert tuple(out[lay.c(i)] for i in range(7)) == c
    assert compute_depth(circ).depth <= 2 * 7


def test_cprime_single_column():
    q = build_reduction_matrix(P2)
    circ = cprime_ancilla_circuit(q)
    assert circ.counts()["CNOT"] <= 2


def _cprime_gates_by_probing(q, c_wires, anc_wires):
    """Reference: probe every position of Q, diagonal after diagonal."""
    n = q.n_rows
    diagonals = (((col + shift) % n, col) for shift in range(n) for col in range(q.n_cols))
    return [(c_wires[row], anc_wires[col]) for row, col in diagonals if q[row, col]]


def test_cprime_gates_walk_the_set_entries_in_probing_order():
    polys = dict.fromkeys(e.polynomial for n in range(2, 65) for e in catalog_entries(n))
    polys.update(dict.fromkeys(catalog_lookup(n).polynomial for n in (163, 233)))
    for p in polys:
        n = p.degree
        q = build_reduction_matrix(p)
        c_wires, anc_wires = range(2 * n, 3 * n), range(3 * n, 4 * n - 1)
        want = _cprime_gates_by_probing(q, c_wires, anc_wires)
        assert _cprime_gates(q, c_wires, anc_wires) == want, p
        assert len(want) == q.popcount(), p


# ---------------------------------------------------------------------------
# preparation fragments


def test_prepare_parallel_k4_shape():
    k = 4
    lay = RegisterLayout(n=k, ancillas=k + k // 2, phase_wires=frozenset())
    a = [lay.a(i) for i in range(k)]
    b = [lay.b(i) for i in range(k)]
    c = [lay.c(i) for i in range(k)]
    cp = [lay.anc(i) for i in range(k)]
    fresh = [lay.anc(k + i) for i in range(k // 2)]
    gates = prepare_parallel(a, b, c, cp, fresh)
    assert len(gates) == 9
    with pytest.raises(InputError, match=r"need k/2 fresh wires"):
        prepare_parallel(a, b, c, cp, fresh[:1])
    circ = Circuit(lay, gates)
    assert compute_depth(circ).depth == 2
    both = Circuit(lay, gates + list(reversed(gates)))
    rng = random.Random(3)
    for _ in range(50):
        state = tuple(rng.randint(0, 1) for _ in range(lay.total_wires))
        assert simulate(both, state) == state


def test_prepare_second_depth_2():
    k = 6
    lay = RegisterLayout(n=k, ancillas=k, phase_wires=frozenset())
    c = [lay.c(i) for i in range(k)]
    cp = [lay.anc(i) for i in range(k)]
    gates = prepare_second(c, cp)
    assert compute_depth(Circuit(lay, gates)).depth == 2


def test_scheduled_calls_touch_disjoint_wires():
    # After the first transform, the two half-size calls of the linear
    # variant must act on disjoint wire sets.
    p = catalog_lookup(8).polynomial
    circ = synth(_opts("linear_depth", p))
    n = 8
    ccz_gates = [g for g in circ.gates if g.kind == "CCZ"]
    # group the first two recursive calls by their CCZ order: calls A and B
    # each contribute ccz_count(n/2)-many leaves before the third call runs.
    per_call = 9  # 3^ceil(log2 4)
    call_a = ccz_gates[:per_call]
    call_b = ccz_gates[per_call : 2 * per_call]
    wires_a = {w for g in call_a for w in g.operands}
    wires_b = {w for g in call_b for w in g.operands}
    assert not wires_a & wires_b


def _operand_digest(gates):
    return hashlib.sha256(repr([g.operands for g in gates]).encode()).hexdigest()


_FRAGMENTS = {
    "ladder-seq-2": lambda: cnot_ladder(list(range(2)), "sequential"),
    "ladder-seq-7": lambda: cnot_ladder(list(range(7)), "sequential"),
    "ladder-seq-16": lambda: cnot_ladder(list(range(16)), "sequential"),
    "ladder-seq-37": lambda: cnot_ladder(list(range(37)), "sequential"),
    "ladder-pre-2": lambda: cnot_ladder(list(range(2)), "prefix_ancilla"),
    "ladder-pre-7": lambda: cnot_ladder(list(range(7)), "prefix_ancilla"),
    "ladder-pre-16": lambda: cnot_ladder(list(range(16)), "prefix_ancilla"),
    "ladder-pre-37": lambda: cnot_ladder(list(range(37)), "prefix_ancilla"),
    "tri-seq-9-7": lambda: reduction_cnot_trinomial(9, 7, style="sequential"),
    "tri-seq-17-5": lambda: reduction_cnot_trinomial(17, 5, style="sequential"),
    "tri-seq-17-15": lambda: reduction_cnot_trinomial(17, 15, style="sequential"),
    "tri-pre-9-7": lambda: reduction_cnot_trinomial(9, 7, style="prefix_ancilla"),
    "tri-pre-17-5": lambda: reduction_cnot_trinomial(17, 5, style="prefix_ancilla"),
    "tri-pre-17-15": lambda: reduction_cnot_trinomial(17, 15, style="prefix_ancilla"),
    "es-seq-4-1": lambda: reduction_cnot_equally_spaced(4, 1, style="sequential"),
    "es-seq-4-3": lambda: reduction_cnot_equally_spaced(4, 3, style="sequential"),
    "es-pre-4-1": lambda: reduction_cnot_equally_spaced(4, 1, style="prefix_ancilla"),
    "es-pre-4-3": lambda: reduction_cnot_equally_spaced(4, 3, style="prefix_ancilla"),
    "prepare-parallel-8": lambda: prepare_parallel(
        range(8), range(8, 16), range(16, 24), range(24, 32), range(32, 36)
    ),
    "prepare-second-8": lambda: prepare_second(range(8), range(8, 16)),
}


# sha256 of the repr of each fragment's operand tuples, in gate order. The
# netlist goldens see fragment order only through catalog moduli; these pin
# the standalone shapes too.
@pytest.mark.parametrize("name, digest", [
    ("ladder-seq-2", "4c461d4a0ab0fe42d5dfe0398002bac0ee02261aa3b5641fe9d4d1f8d99633a3"),
    ("ladder-seq-7", "89fc64631a0bbd22c3fa6f390d7a5467077b226495da0654d1fff8fcedf8b452"),
    ("ladder-seq-16", "297e4a1592203ad9c88e15b2798f883ac252cfa9dca0e3580b284fe5fbb626c8"),
    ("ladder-seq-37", "364537b3c30849e41029fde2f6320cc0e793ef224b0f2da89f9c2d18c00fa81d"),
    ("ladder-pre-2", "4c461d4a0ab0fe42d5dfe0398002bac0ee02261aa3b5641fe9d4d1f8d99633a3"),
    ("ladder-pre-7", "e89ce8003f278549ba119ba026ce6a341bbf3cbda8c5b2b72a537a0d249f59cb"),
    ("ladder-pre-16", "dcfa6ee2133d96bc1b0507fcc3710e4f7807baa0d9c4a699b927bf30913de6ea"),
    ("ladder-pre-37", "a42e768cc962f76b4a7115a177cb0f29d34ef50fbc3694400b73446684d4e98f"),
    ("tri-seq-9-7", "6faf7728e41a1c7181549fcb13a6fef2cfb5eecae338de432d81fb5c830fb854"),
    ("tri-seq-17-5", "b4bac4b7c3fb08d26828fe27764fa7bcca3133adf7edc2dacf30b68e5692a3ad"),
    ("tri-seq-17-15", "20ce44fac08caaefcb271001e8f8b306e50559b72753e3128d22ba20a034e845"),
    ("tri-pre-9-7", "4e156a5cc7556607e6b1adac164aa64249ebcceeda2f14b0ffe11937134ae3a0"),
    ("tri-pre-17-5", "1de28012310a199d94f38515f83c11a942b86d19f21403196dde937dc8e484b0"),
    ("tri-pre-17-15", "f3e3f6f371ff7971281d03151f192e2799edef75671db6bc03bcb540fd90fb1e"),
    ("es-seq-4-1", "4e048762ab4d70dde889f799c92792112353756de79238eee2dcc4147fc44655"),
    ("es-seq-4-3", "8108f940df2aea9682587aa61e99bb46795c60f67e08d1f603eb10b640f82fca"),
    ("es-pre-4-1", "bdae5448a41d0145cf8eae4a24ea75b7e5bc381215c6ad38f81c0f3fe60953b4"),
    ("es-pre-4-3", "bbb81a78819d69dbdd063992bf10917d9ed00868ffe5bf190890726b79bb6936"),
    ("prepare-parallel-8", "55f76677d6da42ec8c08ed4e6d10a1593358028d7dcaf7fbbea9b6e1e8c5559b"),
    ("prepare-second-8", "ab89d826e2e82f7e6853fb974c54aafd0d11e8855c6ebb5d223584988e1281de"),
])
def test_public_fragments_keep_their_gate_lists(name, digest):
    gates = _FRAGMENTS[name]()
    assert all(type(g) is Gate and g.kind == "CNOT" for g in gates)
    assert _operand_digest(gates) == digest


# ---------------------------------------------------------------------------
# karatsuba core fragments


@pytest.mark.parametrize("mode", ["compact", "linear_depth", "log_depth"])
def test_karatsuba_core_base_case(mode):
    frag = karatsuba_core(1, mode)
    assert [g.kind for g in frag.gates] == ["CCZ"]
    assert frag.gates[0].operands == (0, 1, 2)


@pytest.mark.parametrize("mode", ["compact", "linear_depth", "log_depth"])
def test_karatsuba_core_k2_three_ccz_and_phase(mode):
    frag = karatsuba_core(2, mode)
    assert frag.counts()["CCZ"] == 3
    poly, state = extract_phase(frag)
    assert state.is_identity()
    pool = range(8, frag.wire_count)
    assert poly.restricted_to_zero(pool) == target_polynomial(2)


@pytest.mark.parametrize("mode", ["compact", "linear_depth", "log_depth"])
def test_karatsuba_core_k5_bound_and_phase(mode):
    # Past the k <= 16 of the exact test below: odd sizes that pad, and zero
    # tops that shrink, deeper in the tree of each schedule.
    for k in (5, 17, 24, 33):
        frag = karatsuba_core(k, mode)
        assert frag.counts()["CCZ"] <= ccz_count_bound(k), k
        poly, state = extract_phase(frag)
        assert state.is_identity(), k
        assert poly.restricted_to_zero(range(4 * k, frag.wire_count)) == target_polynomial(k), k


@pytest.mark.parametrize("mode", ["linear_depth", "log_depth"])
def test_karatsuba_core_odd_sizes_extract_the_target(mode):
    # An odd size pads to a zero top, whose (A_R, B_R) sub-call leaves its c'
    # entry unbuilt above position h-4 (`halving.read_span`).
    for k in range(1, 34, 2):
        frag = karatsuba_core(k, mode)
        poly, state = extract_phase(frag)
        assert state.is_identity(), k
        assert poly.restricted_to_zero(range(4 * k, frag.wire_count)) == target_polynomial(k), k


@pytest.mark.parametrize("mode", ["linear_depth", "log_depth"])
def test_karatsuba_core_leaves_the_top_cprime_wire_alone(mode):
    # A size-k instance reads c' only at 0..k-2 (`halving.read_span`), so no
    # node builds or unbuilds the top position, c'_(k-1) on wire 4k - 1.
    for k in (2, 4, 8, 16, 32, 64):
        frag = karatsuba_core(k, mode)
        top = 4 * k - 1
        assert not [r for r in frag.records() if top in r[1:]], (mode, k)


def test_linear_depth_core_opens_with_prepare_parallel():
    k = 4
    frag = karatsuba_core(k, "linear_depth")
    a, b, c, cp = (list(range(r * k, (r + 1) * k)) for r in range(4))
    prep = prepare_parallel(a, b, c, cp, [4 * k, 4 * k + 1])
    assert frag.gates[: len(prep)] == prep


# ---------------------------------------------------------------------------
# synth end-to-end


def test_synth_rejects_reducible_and_degree_one():
    with pytest.raises(InputError):
        synth(_opts("compact", BinaryPolynomial.parse("4,2,0")))
    with pytest.raises(InputError):
        synth(_opts("compact", BinaryPolynomial.parse("x+1")))


def test_irreducibility_checked_once_per_call(monkeypatch):
    module = sys.modules[synth.__module__]
    calls = []

    def counting(p):
        calls.append(p)
        return is_irreducible(p)

    monkeypatch.setattr(module, "is_irreducible", counting)
    for variant in ("baseline", "compact"):
        for form in ("ccz_form", "toffoli_form"):
            calls.clear()
            synth(_opts(variant, P7, output_form=form))
            assert calls == [P7], (variant, form)
    calls.clear()
    synth_baseline(P7)
    assert calls == [P7]
    with pytest.raises(InputError):
        synth_baseline(BinaryPolynomial.parse("4,2,0"))
    with pytest.raises(InputError):
        synth_baseline(BinaryPolynomial.parse("x+1"))


@pytest.mark.parametrize("poly", ["7,5,3,1,0", "9,4,0", "4,3,2,1,0"])
def test_synth_baseline_rejects_unknown_ladder_style(poly):
    # generic, trinomial and equally-spaced moduli: only the last two use a ladder
    with pytest.raises(InputError, match="unknown ladder style 'bogus'"):
        synth_baseline(BinaryPolynomial.parse(poly), "bogus")


def test_synth_compact_n2_exhaustive_and_count():
    circ = synth(_opts("compact", P2))
    assert circ.counts()["CCZ"] <= 3
    assert circ.layout.ancillas == 0
    assert verify_multiplier(circ, P2, exhaustive=True).passed


def test_synth_compact_reproduces_reference_product():
    circ = synth(_opts("compact", P7, output_form="toffoli_form"))
    lay = circ.layout
    a = (1, 0, 0, 1, 0, 1, 0)
    b = (0, 1, 1, 0, 0, 0, 0)
    state = [0] * circ.wire_count
    for i in range(7):
        state[lay.a(i)] = a[i]
        state[lay.b(i)] = b[i]
    out = simulate(circ, state)
    assert tuple(out[lay.c(i)] for i in range(7)) == (1, 0, 1, 1, 1, 0, 1)


def test_synth_linear_depth_reference_instance():
    circ = synth(_opts("linear_depth", P4))
    assert circ.counts()["CCZ"] <= 9
    assert verify_multiplier(circ, P4, exhaustive=True).passed
    from gf2kq.netlist import emit_netlist

    tokens = {line.split()[0] for line in emit_netlist(circ).splitlines()[3:] if line}
    assert tokens <= {"CNOT", "CCZ", "H"}


def test_ccz_count_triples_at_powers_of_two():
    counts = {}
    for n in (4, 8, 16, 32, 64, 128, 256, 512):
        counts[n] = ccz_count(catalog_lookup(n).polynomial)
    for n in (4, 8, 16, 32, 64, 128, 256):
        assert counts[2 * n] / counts[n] <= 3


@pytest.mark.parametrize("variant", ["compact", "linear_depth", "baseline"])
def test_synth_variants_small_exhaustive(variant):
    for n in (2, 3, 4, 5):
        p = catalog_lookup(n).polynomial
        circ = synth(_opts(variant, p))
        rep = verify_multiplier(circ, p, exhaustive=True, variant=variant)
        assert rep.passed, rep.summary()


def test_synth_log_depth_small_exhaustive():
    for n in family_degrees("trinomial"):
        if n > 6:
            break
        p = catalog_lookup(n, "trinomial").polynomial
        circ = synth(_opts("log_depth", p))
        assert verify_multiplier(circ, p, exhaustive=True).passed
    p = catalog_lookup(4, "equally_spaced").polynomial
    circ = synth(_opts("log_depth", p))
    assert verify_multiplier(circ, p, exhaustive=True).passed


def test_synth_log_depth_needs_family():
    with pytest.raises(UnsupportedFamilyError):
        synth(_opts("log_depth", P7))


def test_synth_scheduled_variants_reject_toffoli_form():
    for variant in ("linear_depth", "log_depth"):
        p = P4 if variant == "linear_depth" else catalog_lookup(4, "equally_spaced").polynomial
        with pytest.raises(FormError):
            synth(_opts(variant, p, output_form="toffoli_form"))


def test_synth_refuses_toffoli_form_before_building(monkeypatch):
    module = importlib.import_module("gf2kq.synth")

    def unbuildable(*args):
        raise AssertionError("built a circuit the form check refuses")

    monkeypatch.setattr(module, "_karatsuba_circuit", unbuildable)
    for variant, p in (("linear_depth", P7), ("log_depth", catalog_lookup(9, "trinomial").polynomial)):
        with pytest.raises(FormError, match=f"{variant} emits ccz_form only"):
            synth(_opts(variant, p, output_form="toffoli_form"))


def test_synth_cross_variant_agreement_n16():
    p = catalog_lookup(16).polynomial
    compact = synth(_opts("compact", p))
    baseline = synth(_opts("baseline", p))
    linear = synth(_opts("linear_depth", p))
    seed = 777
    for circ in (compact, baseline, linear):
        rep = verify_multiplier(circ, p, trials=1000, seed=seed)
        assert rep.passed, rep.summary()


def test_ccz_counts_match_emitted_circuits():
    for n in range(2, 21):
        p = catalog_lookup(n).polynomial
        expected = ccz_count(p)
        assert expected <= ccz_count_bound(n)
        compact = synth(_opts("compact", p))
        linear = synth(_opts("linear_depth", p))
        assert compact.counts()["CCZ"] == expected
        assert linear.counts()["CCZ"] == expected


def test_baseline_counts_and_structure():
    circ7 = synth_baseline(P7)
    assert circ7.counts()["TOF"] == 49
    assert circ7.layout.ancillas == 0
    circ2 = synth_baseline(P2)
    assert circ2.counts()["TOF"] == 4
    assert verify_multiplier(circ2, P2, exhaustive=True).passed


def test_baseline_sandwich_round_trip():
    ccz_form = synth(_opts("baseline", P4, output_form="ccz_form"))
    back = to_toffoli_form(ccz_form)
    native = synth_baseline(P4)
    assert back.gates == native.gates


@pytest.mark.parametrize("ladder", ["sequential", "prefix_ancilla"])
def test_baseline_forms_agree_on_catalog(ladder):
    # Each baseline form is built directly; the ccz form must still be the
    # toffoli form with the H sandwich added and the CNOTs on c reversed.
    for entry in catalog_entries():
        if entry.n > 32:
            break
        p = entry.polynomial
        toffoli = synth(_opts("baseline", p, output_form="toffoli_form", ladder_style=ladder))
        ccz = synth(_opts("baseline", p, output_form="ccz_form", ladder_style=ladder))
        assert to_toffoli_form(ccz) == toffoli, entry.describe()
        if ladder == "sequential":
            assert synth_baseline(p) == toffoli, entry.describe()


def _row_by_row_baseline(p, style):
    """The ccz-form baseline with each CCZ stage grouped by result bit c_i, j
    ascending: the order the builder emitted before its diagonal layers."""
    n = p.degree
    a, b, c = range(n), range(n, 2 * n), range(2 * n, 3 * n)
    stage2 = _reduction_stage_gates(p, build_reduction_matrix(p), c, style)
    stage2 = [(K_CNOT, t, s, -1) for s, t in stage2]
    h_layer = [(K_H, w, -1, -1) for w in c]
    high = [(K_CCZ, a[j], b[n + i - j], c[i]) for i in a for j in range(i + 1, n)]
    low = [(K_CCZ, a[j], b[i - j], c[i]) for i in a for j in range(i + 1)]
    records = [*h_layer, *stage2[::-1], *high, *stage2, *low, *h_layer]
    kinds = bytearray(r[0] for r in records)
    ops = array("i", (w for r in records for w in r[1:]))
    return Circuit.from_records(RegisterLayout(n=n), kinds, ops)


def _stages_and_rest(circ):
    """The multiset of each maximal run of CCZ or Toffoli records, and every
    other record with its position."""
    stages, rest, in_stage = [], [], False
    for pos, rec in enumerate(circ.records()):
        phase = rec[0] in (K_CCZ, K_TOF)
        if phase and not in_stage:
            stages.append(Counter())
        if phase:
            stages[-1][rec] += 1
        else:
            rest.append((pos, rec))
        in_stage = phase
    return stages, rest


def test_baseline_permutes_the_row_by_row_order_within_each_stage():
    # The gates of a stage commute, so the diagonal order is exact as long as
    # only the order within a stage moved: every CNOT and H record at its old
    # position, each stage the same multiset of CCZs (or Toffolis).
    moduli = dict.fromkeys(e.polynomial for e in catalog_entries() if e.n <= 32)
    for p in moduli:
        for style in LADDER_STYLES:
            ref = _row_by_row_baseline(p, style)
            for form, want in (("ccz_form", ref), ("toffoli_form", to_toffoli_form(ref))):
                got = synth(_opts("baseline", p, output_form=form, ladder_style=style))
                assert got.layout == want.layout and len(got) == len(want), (p, style, form)
                got_stages, got_rest = _stages_and_rest(got)
                want_stages, want_rest = _stages_and_rest(want)
                assert len(got_stages) == 2, (p, style, form)
                assert got_rest == want_rest, (p, style, form)
                assert got_stages == want_stages, (p, style, form)


def test_baseline_toffoli_depth_is_2n():
    sizes = {*range(2, 65), 127, 128, 255, 256}
    moduli = dict.fromkeys(e.polynomial for e in catalog_entries() if e.n in sizes)
    for p in moduli:
        for form in ("ccz_form", "toffoli_form"):
            circ = synth(_opts("baseline", p, output_form=form))
            assert compute_depth(circ).toffoli_depth == 2 * p.degree, (p, form)


def _generic_path(p):
    return trinomial_split(p) is None and equally_spaced_split(p) is None


def _assert_closed_form_baseline(p, form, **verify):
    # Q completed by x^(n-1) costs 2(n-1)(w-2) CNOTs for a modulus of w terms.
    n, w = p.degree, len(p.exponents())
    circ = synth(_opts("baseline", p, output_form=form))
    counts = circ.counts()
    assert counts["CNOT"] == 2 * (n - 1) * (w - 2), (p, form)
    assert counts.get("CCZ", 0) + counts.get("TOF", 0) == n * n, (p, form)
    if verify:
        assert verify_multiplier(circ, p, **verify).passed, (p, form)


def test_baseline_generic_reduction_stage_closed_form_on_catalog():
    moduli = {e.polynomial for e in catalog_entries() if e.n <= 128 and _generic_path(e.polynomial)}
    assert len(moduli) == 99
    for p in moduli:
        for form in ("ccz_form", "toffoli_form"):
            _assert_closed_form_baseline(p, form)


def test_baseline_generic_reduction_stage_closed_form_on_random_moduli():
    rng = random.Random(13)
    moduli = set()
    while len(moduli) < 24:
        n = rng.randint(3, 6 if len(moduli) < 4 else 40)
        p = BinaryPolynomial(1 << n | rng.getrandbits(n) | 1)
        if _generic_path(p) and is_irreducible(p):
            moduli.add(p)
    for p in moduli:
        for form in ("ccz_form", "toffoli_form"):
            _assert_closed_form_baseline(p, form, exhaustive=p.degree <= 6, seed=p.bits)


def test_compact_toffoli_form_has_no_phase_gates():
    circ = synth(_opts("compact", P4, output_form="toffoli_form"))
    counts = circ.counts()
    assert counts["H"] == 0 and counts["CCZ"] == 0
    assert verify_multiplier(circ, P4, exhaustive=True).passed


def test_ancilla_budgets():
    for n in (16, 32, 64):
        p = catalog_lookup(n).polynomial
        lin = synth(_opts("linear_depth", p))
        assert lin.layout.ancillas <= n * math.log2(n)
    for n in (9, 17, 33):
        p = catalog_lookup(n, "trinomial").polynomial
        log = synth(_opts("log_depth", p))
        assert log.layout.ancillas <= 30 * n ** math.log2(3)


def test_linear_depth_ratio_small():
    depths = {}
    for n in (8, 16, 32, 64):
        p = catalog_lookup(n).polynomial
        depths[n] = compute_depth(synth(_opts("linear_depth", p))).depth
    assert depths[16] / depths[8] <= 2.5
    assert depths[32] / depths[16] <= 2.5
    assert depths[64] / depths[32] <= 2.5


def test_random_nonzero_initial_c_all_variants():
    p = catalog_lookup(5).polynomial
    for variant in ("compact", "linear_depth", "baseline"):
        circ = synth(_opts(variant, p))
        rep = verify_multiplier(circ, p, exhaustive=True)
        assert rep.passed and rep.ancillas_clean


# ---------------------------------------------------------------------------
# gate storage and the compact builder's in-place group


def _retained(build):
    """build()'s result and the bytes it holds once built, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant,n,family", [("compact", 128, None), ("log_depth", 63, "trinomial")])
def test_gate_storage_is_at_most_16_bytes_per_gate(variant, n, family):
    p = (catalog_lookup(n, family) if family else catalog_lookup(n)).polynomial
    circ, held = _retained(lambda: synth(_opts(variant, p)))
    assert held <= 16 * len(circ)
    text = emit_netlist(circ)
    parsed, held = _retained(lambda: parse_netlist(text))
    assert parsed == circ
    assert held <= 16 * len(parsed)
    assert Circuit(circ.layout, circ.gates) == circ


def _cnot_objects_and_pairs(gates):
    cnots = [g for g in gates if g.kind == "CNOT"]
    return len({id(g) for g in cnots}), len({g.operands for g in cnots})


@pytest.mark.parametrize("k", [5, 16, 33, 64])
@pytest.mark.parametrize("mode", ["compact", "linear_depth", "log_depth"])
def test_karatsuba_core_uses_one_cnot_gate_per_wire_pair(mode, k):
    objects, pairs = _cnot_objects_and_pairs(karatsuba_core(k, mode).gates)
    assert objects == pairs


def test_compact_synth_uses_one_cnot_gate_per_wire_pair():
    circ = synth(_opts("compact", catalog_lookup(128).polynomial))
    objects, pairs = _cnot_objects_and_pairs(circ.gates)
    assert objects == pairs < circ.counts()["CNOT"]


def test_in_place_group_materialize_and_restore():
    kinds, ops = bytearray(), array("i")
    group = _InPlaceGroup([10, 11, 12, 13], kinds, ops)

    def gates():
        return Circuit.from_records(RegisterLayout(n=5), bytes(kinds), array("i", ops)).gates

    assert group.materialize(0b0011) == 10
    assert gates() == [Gate.cnot(11, 10)]
    assert group.materialize(0b0011) == 10
    assert group.materialize(0b0010) == 11
    assert gates() == [Gate.cnot(11, 10)]
    assert group.materialize(0b1110) == 11
    assert gates() == [Gate.cnot(11, 10), Gate.cnot(12, 11), Gate.cnot(13, 11)]
    with pytest.raises(SynthesisError):
        group.materialize(0)
    group.restore()
    assert len(gates()) > 3
    state = LinearWireState(14)
    for g in gates():
        state.cnot(*g.operands)
    assert state.is_identity()


def test_in_place_group_restore_matches_full_gauss_jordan():
    # `restore` reduces only the rows `materialize` targeted and the columns
    # they hold; the pairs must be those of Gauss-Jordan over every row.
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 40)
        kinds, ops = bytearray(), array("i")
        group = _InPlaceGroup(range(3, 3 + n), kinds, ops)
        for _ in range(8):
            for _ in range(rng.randint(0, 2 * n)):
                group.materialize(rng.randint(1, (1 << n) - 1))
            ref = [(s + 3, t + 3) for s, t in _gauss_jordan(group.state.rows)]
            start = len(ops)
            group.restore()
            assert list(zip(ops[start::3], ops[start + 1 :: 3])) == ref
            assert group.state.is_identity() and group.dirty == 0
        state = LinearWireState(3 + n)
        for u, v in zip(ops[0::3], ops[1::3]):
            state.cnot(u, v)
        assert state.is_identity()


class _NoGate:
    def __getattr__(self, name):
        raise AssertionError(f"a builder used Gate.{name}")


def test_builders_make_no_gate_objects(monkeypatch):
    # `gf2kq.synth` the attribute is the function; the module is imported by name.
    module = importlib.import_module("gf2kq.synth")
    monkeypatch.setattr(module, "Gate", _NoGate())
    moduli = [catalog_lookup(9, "trinomial"), catalog_lookup(12, "equally_spaced"),
              catalog_lookup(13), catalog_lookup(16)]
    for entry in moduli:
        p = entry.polynomial
        for variant in module.VARIANTS:
            if variant == "log_depth" and entry.family == "generic":
                continue
            forms = ("ccz_form", "toffoli_form") if variant in ("baseline", "compact") else ("ccz_form",)
            for form in forms:
                for ladder in module.LADDER_STYLES:
                    circ = synth(_opts(variant, p, output_form=form, ladder_style=ladder))
                    assert circ.counts()["CCZ" if form == "ccz_form" else "TOF"] > 0
    for k in (1, 5, 8):
        for mode in ("compact", "linear_depth", "log_depth"):
            assert karatsuba_core(k, mode).counts()["CCZ"] > 0
    q = build_reduction_matrix(P7)
    assert cprime_ancilla_circuit(q).counts()["CNOT"] == q.popcount()


def karatsuba_m(n):
    """Karatsuba's unbalanced count: M(n) = 2 M(ceil(n/2)) + M(floor(n/2)), M(1) = 1."""
    return 1 if n == 1 else 2 * karatsuba_m((n + 1) // 2) + karatsuba_m(n // 2)


def test_ccz_count_is_unbalanced_karatsuba_on_catalog():
    for n in range(2, 129):
        want = karatsuba_m(n)
        assert want <= ccz_count_bound(n)
        for entry in catalog_entries(n):
            assert ccz_count(entry.polynomial) == want, entry


# The five binary fields of FIPS 186-4, Appendix D, and M(n) for each.
FIPS_186_4 = (
    ([163, 7, 6, 3, 0], 4387),
    ([233, 74, 0], 6323),
    ([283, 12, 7, 5, 0], 10273),
    ([409, 87, 0], 17101),
    ([571, 10, 5, 2, 0], 31171),
)


@pytest.mark.parametrize("exponents,m", FIPS_186_4)
def test_ccz_count_on_fips_186_4_fields(exponents, m):
    p = BinaryPolynomial.parse(",".join(map(str, exponents)))
    assert is_irreducible(p)
    assert ccz_count(p) == karatsuba_m(p.degree) == m


@pytest.mark.parametrize("mode", ["compact", "linear_depth", "log_depth"])
def test_karatsuba_core_is_unbalanced_karatsuba_with_exact_phase(mode):
    for k in range(1, 17):
        frag = karatsuba_core(k, mode)
        assert frag.counts()["CCZ"] == karatsuba_m(k), k
        poly, state = extract_phase(frag)
        assert state.is_identity(), k
        # Helpers start at 4k and hold 0 on entry.
        assert poly.restricted_to_zero(range(4 * k, frag.wire_count)) == target_polynomial(k), k


def _log_depth_cases():
    """Every trinomial and equally spaced catalog modulus with 4 <= n <= 64, then B-233."""
    for n in range(4, 65):
        for entry in catalog_entries(n):
            if entry.family != "generic":
                yield n, entry.polynomial
    yield 233, BinaryPolynomial.parse("x^233+x^74+1")


@pytest.mark.parametrize("ladder", ["sequential", "prefix_ancilla"])
def test_log_depth_cost_and_verification(ladder):
    # Sub-calls sit on their parent's wires where no sibling needs them, so a
    # node takes 4h - 1 fresh wires and 10h - 3 prep CNOTs, leaving the top
    # c' position of each sub-call unbuilt (12h and 18h with private
    # copies of every entry, which read up to 14.97 n^log2(3) qubits and 33.7
    # CNOTs per CCZ here).
    for n, p in _log_depth_cases():
        circ = synth(_opts("log_depth", p, ladder_style=ladder))
        rep = compute_depth(circ)
        assert rep.counts["CCZ"] == ccz_count(p) and rep.toffoli_depth == 1, p
        assert rep.qubit_count <= 6.5 * n ** math.log2(3), p
        assert rep.counts["CNOT"] <= 20 * rep.counts["CCZ"], p
        trials = 1000 if n == 233 else 300
        assert verify_multiplier(circ, p, exhaustive=n <= 6, trials=trials, seed=n).passed, p


def _compact_cases():
    """Every distinct catalog modulus with n <= 64, then the n = 128 and 256 defaults."""
    polys = dict.fromkeys(e.polynomial for n in range(2, 65) for e in catalog_entries(n))
    return [*polys, catalog_lookup(128).polynomial, catalog_lookup(256).polynomial]


def _c_only_solve(p):
    """(control, target) of the CNOTs of a per-leaf solve on the c register alone:
    `_forms_recursion`'s leaves fed to one c-only `_InPlaceGroup`, with `restore()`
    after each sub-call of size `_RESTORE_SIZE` or more and at the end."""
    n = p.degree
    kinds, ops = bytearray(), array("i")
    group = _InPlaceGroup(range(2 * n, 3 * n), kinds, ops)

    def leaf(fa, fb, fc):
        if fa and fb and fc:
            group.materialize(fc)

    def done(k):
        if k >= _RESTORE_SIZE:
            group.restore()

    ones = [1 << i for i in range(n)]
    cp = [*build_reduction_matrix(p).columns(), 0]
    _forms_recursion(ones, ones, ones, cp, leaf, lambda a, b: None, done)
    group.restore()
    return list(zip(ops[0::3], ops[1::3]))


def _large_call_ends(p):
    """(ends, forms): how many CCZs compact emits before each return of a
    sub-call of size >= 32, and the c-form of each CCZ, in order."""
    n = p.degree
    ends, forms = [], []

    def leaf(fa, fb, fc):
        if fa and fb and fc:
            forms.append(fc)

    def done(k):
        if k >= 32:
            ends.append(len(forms))

    ones = [1 << i for i in range(n)]
    cp = [*build_reduction_matrix(p).columns(), 0]
    _forms_recursion(ones, ones, ones, cp, leaf, lambda a, b: None, done)
    return ends, forms


def _assert_c_restored(p, circ):
    """Replay the c-register CNOTs of compact `circ` and check that c holds its
    initial value wherever a sub-call of size >= 32 has returned; return how
    many such points lie before a CCZ. Between such a point and the next CCZ
    come only the CNOTs that put that CCZ's form on a wire, which from the
    identity are the form's other wires onto its lowest."""
    n = p.degree
    ends, forms = _large_call_ends(p)
    identity = [1 << i for i in range(n)]
    rows = identity.copy()  # row i: wire 2n + i over the initial c values
    pending = []

    def replay(pairs):
        for u, v in pairs:
            rows[v - 2 * n] ^= rows[u - 2 * n]

    ccz = inner = 0
    for k, u, v, _ in circ.records():
        if k == K_CNOT and v >= 2 * n:
            pending.append((u, v))
        elif k == K_CCZ:
            if ccz in ends:
                low, *rest = (2 * n + j for j in range(n) if forms[ccz] >> j & 1)
                cut = len(pending) - len(rest)
                assert pending[cut:] == [(j, low) for j in rest], p
                replay(pending[:cut])
                assert rows == identity, p
                del pending[:cut]
                inner += 1
            replay(pending)
            pending.clear()
            ccz += 1
    replay(pending)
    assert rows == identity and ends[-1:] in ([], [ccz]), p
    return inner


def test_compact_c_is_identity_after_each_large_sub_call():
    polys = dict.fromkeys(e.polynomial for n in range(2, 129) for e in catalog_entries(n))
    inner = 0
    for p in polys:
        n = p.degree
        circ = synth(_opts("compact", p))
        inner += _assert_c_restored(p, circ)
        assert circ.counts()["CCZ"] == ccz_count(p) and circ.wire_count == 3 * n, p
        if n > 64 and n % 8 == 1:  # the fold test below verifies n <= 64
            for form in (circ, to_toffoli_form(circ)):
                assert verify_multiplier(form, p, trials=300, seed=n).passed, p
    assert inner > 100


def test_compact_folds_a_and_b_and_keeps_the_c_solve():
    # a and b are folded half onto half around each split, with no solve; a
    # solve per leaf on a, as c still has, emitted 5.3 M(n) CNOTs at n = 256.
    for p in _compact_cases():
        n = p.degree
        circ = synth(_opts("compact", p))
        cnots = [(u, v) for k, u, v, _ in circ.records() if k == K_CNOT]
        assert all(u // n == v // n for u, v in cnots), p
        a, b, c = ([(u, v) for u, v in cnots if v // n == r] for r in range(3))
        assert c == _c_only_solve(p), p
        assert b == [(u + n, v + n) for u, v in a], p
        assert len(a) <= 2 * karatsuba_m(n), p
        rep = compute_depth(circ)
        assert rep.counts["CCZ"] == ccz_count(p) and rep.qubit_count == 3 * n, p
        for form in (circ, to_toffoli_form(circ)):
            assert verify_multiplier(form, p, exhaustive=n <= 6, trials=300, seed=n).passed, p
