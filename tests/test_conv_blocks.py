"""The multi-kernel gated convolution unit, its fusions, and the baselines."""

import numpy as np
import pytest

from multiconv.autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    matmul,
    mul,
    tsum,
)
from scipy import special

import oracles
from multiconv.config import parse_fusion
from multiconv.conv_blocks import (
    ConformerConvBlock,
    CsguBlock,
    FusionKind,
    Mcsgu,
    MultiConvBlock,
    fusion_param_count,
)
from multiconv.errors import ConfigError, ShapeError
from multiconv.layers import observing, softmax

RNG = np.random.default_rng(55)


def _unit(fusion, d_inter=24, kernels=(3, 5), seed=0):
    return Mcsgu(d_inter, kernels, fusion, np.random.default_rng(seed))


def test_parse_fusion():
    assert parse_fusion("sum") is FusionKind.SUM
    assert parse_fusion("depth") is FusionKind.DEPTH
    with pytest.raises(ConfigError):
        parse_fusion("mean")


@pytest.mark.parametrize("fusion", list(FusionKind))
def test_output_is_half_width(fusion):
    unit = _unit(fusion)
    out = unit(Tensor(RNG.normal(size=(9, 24))))
    assert out.shape == (9, 12)


@pytest.mark.parametrize("kernels", [
    (),
    (4,),               # even width has no centre tap
    (-3,),
    (5, 3),             # widths must grow
    (3, 3),
    (3.7,),             # not truncated to 3
    ("3",),
    (True,),
    "357",              # a string is not a list of widths
])
def test_bad_kernel_lists_rejected(kernels):
    rng = np.random.default_rng(0)
    for fusion in FusionKind:
        with pytest.raises(ConfigError):
            Mcsgu(24, kernels, fusion, rng)
        with pytest.raises(ConfigError):
            fusion_param_count(fusion, 24, kernels)


def test_validation_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        Mcsgu(25, (3,), FusionKind.SUM, rng)          # odd width
    with pytest.raises(ConfigError):
        Mcsgu(24, (3, 5, 7, 9, 11), FusionKind.CONCAT, rng)  # 5 does not divide 12
    unit = _unit(FusionKind.SUM)
    with pytest.raises(ShapeError):
        unit(Tensor(np.ones((4, 20))))


def test_sum_fusion_adds_branch_outputs():
    unit = _unit(FusionKind.SUM, kernels=(1, 3, 7))
    a = RNG.normal(size=(8, 24))
    z_l, z_r = a[:, :12], a[:, 12:]
    normed = unit.norm(Tensor(z_r)).data
    branches = sum(conv(Tensor(normed)).data for conv in unit.branches)
    assert np.allclose(unit(Tensor(a)).data, z_l * branches, atol=1e-12)


def test_weighted_fusion_mixes_with_softmax_gates():
    unit = _unit(FusionKind.WEIGHTED, kernels=(3, 5))
    unit.gate.weight.data = np.random.default_rng(9).normal(size=(12, 2))
    unit.gate.bias.data = np.random.default_rng(10).normal(size=2)
    a = RNG.normal(size=(7, 24))
    with observing() as seen:
        out = unit(Tensor(a))
    alpha = seen[unit][0]
    assert alpha.shape == (7, 2)
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    z_l = a[:, :12]
    normed = unit.norm(Tensor(a[:, 12:])).data
    mix = sum(alpha[:, i:i + 1] * conv(Tensor(normed)).data
              for i, conv in enumerate(unit.branches))
    assert np.allclose(out.data, z_l * mix, atol=1e-12)


def test_weighted_gate_starts_at_zero_and_uniform():
    for p, kernels in ((2, (3, 5)), (4, (3, 5, 7, 9))):
        unit = _unit(FusionKind.WEIGHTED, d_inter=8 * p, kernels=kernels)
        assert np.array_equal(unit.gate.weight.data, np.zeros((4 * p, p)))
        with observing() as seen:
            unit(Tensor(RNG.normal(size=(6, 8 * p))))
        assert np.array_equal(seen[unit][0], np.full((6, p), 1.0 / p))


def test_weighted_with_zero_gate_equals_scaled_sum():
    a = RNG.normal(size=(9, 24))
    weighted = _unit(FusionKind.WEIGHTED, kernels=(3, 5), seed=4)
    summed = _unit(FusionKind.SUM, kernels=(3, 5), seed=4)
    # same seed gives both units identical norm and branch parameters
    for ours, theirs in zip(weighted.branches, summed.branches):
        assert np.array_equal(ours.weight.data, theirs.weight.data)
    got = weighted(Tensor(a)).data
    want = summed(Tensor(a)).data / 2.0
    assert np.allclose(got, want, atol=1e-12)


def test_concat_fusion_stacks_branch_blocks():
    unit = _unit(FusionKind.CONCAT, d_inter=24, kernels=(3, 5))
    a = RNG.normal(size=(6, 24))
    normed = unit.norm(Tensor(a[:, 12:])).data
    blocks = np.concatenate([conv(Tensor(normed)).data for conv in unit.branches],
                            axis=1)
    assert np.allclose(unit(Tensor(a)).data, a[:, :12] * blocks, atol=1e-12)


@pytest.mark.parametrize("p,kernels", [(2, (3, 5)), (4, (3, 5, 7, 9))])
def test_concat_channel_provenance(p, kernels):
    # probe the conv path after the norm (the norm itself couples all
    # channels of a frame, so provenance is a property of the convs):
    # fused channel i*(half/P) + o must depend only on input channels
    # [o*P, (o+1)*P) of the normed half, for every kernel branch i
    half = 4 * p
    unit = _unit(FusionKind.CONCAT, d_inter=2 * half, kernels=kernels, seed=8)
    z = RNG.normal(size=(9, half))
    base = np.concatenate([conv(Tensor(z)).data for conv in unit.branches], axis=1)
    for block in range(half // p):
        bumped = z.copy()
        bumped[:, block * p:(block + 1) * p] += 1.0
        moved = np.concatenate([conv(Tensor(bumped)).data for conv in unit.branches],
                               axis=1)
        changed = set(np.nonzero(np.any(moved != base, axis=0))[0].tolist())
        assert changed == {i * (half // p) + block for i in range(p)}


def test_depth_fusion_with_delta_kernel_equals_concat():
    kernels = (3, 5)
    depth = _unit(FusionKind.DEPTH, kernels=kernels, seed=11)
    concat = _unit(FusionKind.CONCAT, kernels=kernels, seed=11)
    # same seed: identical norm and branch weights (the final conv draws later)
    for ours, theirs in zip(depth.branches, concat.branches):
        assert np.array_equal(ours.weight.data, theirs.weight.data)
    k_f = depth.final_conv.kernel
    depth.final_conv.weight.data[:] = 0.0
    depth.final_conv.weight.data[:, k_f // 2] = 1.0
    depth.final_conv.bias.data[:] = 0.0
    a = RNG.normal(size=(8, 24))
    assert np.array_equal(depth(Tensor(a)).data, concat(Tensor(a)).data)


@pytest.mark.parametrize("kernel", [3, 7, 15, 31])
def test_single_kernel_sum_reduces_to_plain_gating_unit(kernel):
    multi = _unit(FusionKind.SUM, d_inter=40, kernels=(kernel,), seed=13)
    multi.norm.gamma.data = RNG.normal(size=20)
    multi.norm.beta.data = RNG.normal(size=20)
    a = RNG.normal(size=(12, 40))
    want = oracles.csgu_loops(a, multi.norm.gamma.data, multi.norm.beta.data,
                              multi.branches[0].weight.data, multi.branches[0].bias.data)
    assert np.abs(multi(Tensor(a)).data - want).max() < 1e-12


def _csgu_block_loops(x, p):
    """The csgu half-block written out in numpy: expand, gelu, gate, project."""
    up = x @ p["up.weight"] + p["up.bias"]
    a = up * 0.5 * (1.0 + special.erf(up / np.sqrt(2.0)))
    h = oracles.csgu_loops(a, p["unit.norm.gamma"], p["unit.norm.beta"],
                           p["unit.branches.0.weight"], p["unit.branches.0.bias"])
    return h @ p["down.weight"] + p["down.bias"]


@pytest.mark.parametrize("t_len, kernel", [(1, 3), (6, 7), (11, 15)])
def test_csgu_block_forward_and_gradients_match_loop_oracle(t_len, kernel):
    blk = CsguBlock(6, 12, kernel, np.random.default_rng(kernel))
    rng = np.random.default_rng(t_len)
    blk.unit.norm.gamma.data = rng.normal(size=6)
    blk.unit.norm.beta.data = rng.normal(size=6)
    params = dict(blk.named_parameters())
    assert list(params) == ["up.weight", "up.bias", "unit.norm.gamma", "unit.norm.beta",
                            "unit.branches.0.weight", "unit.branches.0.bias",
                            "down.weight", "down.bias"]
    x = rng.normal(size=(t_len, 6))
    proj = rng.normal(size=(t_len, 6))
    xt = Tensor(x, requires_grad=True)
    with Tape():
        out = blk(xt)
        backward(tsum(mul(out, Tensor(proj))))
    values = {name: t.data for name, t in params.items()}
    assert np.abs(out.data - _csgu_block_loops(x, values)).max() <= 1e-12
    want = oracles.complex_step_grad(lambda v: (_csgu_block_loops(v, values) * proj).sum(), x)
    assert np.abs(xt.grad - want).max() <= 1e-12
    for name, t in params.items():
        want = oracles.complex_step_grad(
            lambda v: (_csgu_block_loops(x, {**values, name: v}) * proj).sum(), t.data)
        assert np.abs(t.grad - want).max() <= 1e-12, name


def test_fusion_param_count_matches_instantiated_units():
    for fusion in FusionKind:
        for d_inter, kernels in ((24, (3, 5)), (48, (3, 5, 7, 11)), (16, (7,))):
            unit = Mcsgu(d_inter, kernels, fusion, np.random.default_rng(0))
            measured = unit.param_count() - 2 * (d_inter // 2)  # exclude the norm
            assert measured == fusion_param_count(fusion, d_inter, kernels), (
                fusion, d_inter, kernels)


def test_fusion_param_count_formulas_by_hand():
    # half=12, kernels 3 and 5: depthwise branches 12*3+12 + 12*5+12 = 120
    assert fusion_param_count(FusionKind.SUM, 24, (3, 5)) == 120
    # weighted adds the 12->2 gate: 120 + 24 + 2
    assert fusion_param_count(FusionKind.WEIGHTED, 24, (3, 5)) == 146
    # concat: weights 12*3 + 12*5 = 96 plus one 12-wide bias in total
    assert fusion_param_count(FusionKind.CONCAT, 24, (3, 5)) == 108
    # depth adds a width-5 depthwise pass: 108 + 12*5+12
    assert fusion_param_count(FusionKind.DEPTH, 24, (3, 5)) == 180


def test_multiconv_block_shapes_and_gate_capture():
    for fusion in FusionKind:
        block = MultiConvBlock(10, 24, (3, 5), fusion, np.random.default_rng(1))
        with observing() as seen:
            out = block(Tensor(RNG.normal(size=(7, 10))))
        assert out.shape == (7, 10)
        assert len(seen.get(block.unit, [])) == (1 if fusion is FusionKind.WEIGHTED else 0)


def test_csgu_block_and_conformer_block_shapes():
    x = Tensor(RNG.normal(size=(9, 10)))
    blk = CsguBlock(10, 24, 7, np.random.default_rng(2))
    assert blk(x).shape == (9, 10)
    conf = ConformerConvBlock(10, 7, np.random.default_rng(3))
    assert conf(x).shape == (9, 10)


def test_conformer_block_single_frame():
    conf = ConformerConvBlock(6, 5, np.random.default_rng(4))
    assert conf(Tensor(RNG.normal(size=(1, 6)))).shape == (1, 6)


def _unfused(unit, a):
    """The gating unit as written in its definition: every branch module run
    on its own, then fused by the rule. Reference for the folded forward.

    Built from generic ops only: alpha[:, i] is broadcast over channels as a
    product with a row of ones, and the branch outputs are concatenated by
    0/1 placement matrices. Both are exact in float arithmetic."""
    z_l, z_r = oracles.split_channels(a, unit.half)
    z_r = unit.norm(z_r)
    outs = [conv(z_r) for conv in unit.branches]
    if unit.fusion is FusionKind.WEIGHTED:
        alpha = softmax(unit.gate(z_r))
        ones = Tensor(np.ones((1, unit.half)))
        outs = [mul(v, matmul(oracles.slice_channels(alpha, i, i + 1), ones))
                for i, v in enumerate(outs)]
    elif unit.fusion is not FusionKind.SUM:
        lo = 0
        for i, v in enumerate(outs):
            place = np.zeros((v.shape[1], unit.half))
            place[:, lo:lo + v.shape[1]] = np.eye(v.shape[1])
            outs[i] = matmul(v, Tensor(place))
            lo += v.shape[1]
    fused = outs[0]
    for v in outs[1:]:
        fused = add(fused, v)
    if unit.final_conv is not None:
        fused = unit.final_conv(fused)
    return mul(z_l, fused)


def _call_with_grads(unit, forward, a, proj):
    """Output, a's gradient and every parameter gradient of one forward and
    backward of ``forward``, with the mixtures it observed and its node count."""
    unit.zero_grad()
    at = Tensor(a, requires_grad=True)
    with observing() as seen, Tape() as tape:
        out = forward(at)
        nodes = len(tape)
        backward(tsum(mul(out, Tensor(proj))))
    return [out.data, at.grad, *(t.grad for t in unit.parameters())], seen.get(unit, []), nodes


@pytest.mark.parametrize("fusion", list(FusionKind))
@pytest.mark.parametrize("kernels", [(3,), (1, 3, 7), (7, 15, 23, 31)])
@pytest.mark.parametrize("length", ["one", "short", "long"])
def test_folded_unit_matches_unfused_formula(fusion, kernels, length):
    # d_inter 24: the gate width 12 is divisible by P = 1, 3 and 4
    t_len = {"one": 1, "short": kernels[-1] - 1 or 1, "long": kernels[-1] + 5}[length]
    unit = _unit(fusion, d_inter=24, kernels=kernels, seed=17)
    rng = np.random.default_rng(len(kernels) * 100 + t_len)
    if unit.gate is not None:  # leave the uniform start so the mixture varies
        unit.gate.weight.data = rng.normal(size=unit.gate.weight.shape)
    a = rng.normal(size=(t_len, 24))
    proj = rng.normal(size=(t_len, 12))
    folded = _call_with_grads(unit, unit, a, proj)[0]
    unfused = _call_with_grads(unit, lambda at: _unfused(unit, at), a, proj)[0]
    assert len(folded) == 2 + len(unit.parameters())
    for got, want in zip(folded, unfused):
        assert got is not None and want is not None
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("fusion", list(FusionKind))
def test_folded_unit_node_count_does_not_grow_with_branches(fusion):
    # sum/concat/depth fold the P branch convs into one conv node, and
    # weighted runs them and mixes their outputs inside one; the node count
    # does not grow with P
    counts = []
    for kernels in ((3,), (3, 5, 7, 9)):
        unit = _unit(fusion, d_inter=24, kernels=kernels)
        with Tape() as tape:
            unit(Tensor(RNG.normal(size=(6, 24)), requires_grad=True))
        counts.append(len(tape))
    assert counts[1] == counts[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fusion", list(FusionKind))
@pytest.mark.parametrize("kernels", [(3,), (3, 7, 11, 15)])
@pytest.mark.parametrize("length", ["one", "short", "long"])
def test_unit_matches_the_composite_reference_bit_for_bit(dtype, fusion, kernels, length):
    # the norm and the gate read a's halves in place, and the folds run
    # inside the conv nodes: the same arithmetic as the copied halves, the
    # fold, add, reorder and mul nodes of oracles.mcsgu_reference
    t_len = {"one": 1, "short": kernels[-1] - 1, "long": kernels[-1] + 5}[length]
    unit = _unit(fusion, d_inter=24, kernels=kernels, seed=19).astype(dtype)
    rng = np.random.default_rng(t_len)
    unit.norm.gamma.data = rng.normal(size=12).astype(dtype)
    unit.norm.beta.data = rng.normal(size=12).astype(dtype)
    if unit.gate is not None:  # leave the uniform start so the mixture varies
        unit.gate.weight.data = rng.normal(size=unit.gate.weight.shape).astype(dtype)
    a = rng.normal(size=(t_len, 24)).astype(dtype)
    proj = rng.normal(size=(t_len, 12)).astype(dtype)
    got, got_seen, got_nodes = _call_with_grads(unit, unit, a, proj)
    want, want_seen, want_nodes = _call_with_grads(
        unit, lambda at: oracles.mcsgu_reference(unit, at), a, proj)
    assert len(got) == 2 + len(unit.parameters())
    for ours, theirs in zip(got, want):
        assert ours.dtype == dtype and np.array_equal(ours, theirs)
    assert len(got_seen) == len(want_seen) == (fusion is FusionKind.WEIGHTED)
    for ours, theirs in zip(got_seen, want_seen):
        assert np.array_equal(ours, theirs)
    # two copies and the gate's mul become one gate node; sum also loses its
    # add and fold_taps nodes, concat/depth their fold_taps and branch_major,
    # and weighted's P branch convs and mix_rows node become one conv node
    saved = 2 + len(kernels) if fusion is FusionKind.WEIGHTED else 4
    assert got_nodes == want_nodes - saved


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("widths", [(3,), (1, 3, 7), (3, 7, 11, 15)])
@pytest.mark.parametrize("stack", [False, True])
def test_fold_taps_matches_its_loop_reference(dtype, widths, stack):
    rng = np.random.default_rng(len(widths))
    shapes = [(3, 2, 4, k) if stack else (6, k) for k in widths]
    kernels = [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
               for shape in shapes]
    arrays = [w.data for w in kernels]
    with Tape():
        merged = oracles.fold_taps(kernels, widths[-1], stack)
        g = rng.normal(size=merged.shape).astype(dtype)
        backward(tsum(mul(merged, Tensor(g))))
    want = oracles.fold_taps_loops(arrays, widths[-1], stack)
    assert merged.dtype == dtype and np.array_equal(merged.data, want)
    for w, gw in zip(kernels, oracles.fold_taps_grads_loops(arrays, widths[-1], stack, g)):
        assert np.array_equal(w.grad, gw)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [1, 3, 4])
@pytest.mark.parametrize("t_len", [1, 6])
def test_branch_major_matches_its_loop_reference(dtype, p, t_len):
    groups = 5
    rng = np.random.default_rng(10 * p + t_len)
    y = Tensor(rng.normal(size=(t_len, groups * p)).astype(dtype), requires_grad=True)
    biases = [Tensor(rng.normal(size=groups).astype(dtype), requires_grad=True)
              for _ in range(p)]
    g = rng.normal(size=(t_len, groups * p)).astype(dtype)
    with Tape():
        out = oracles.branch_major(y, biases)
        backward(tsum(mul(out, Tensor(g))))
    want = oracles.branch_major_loops(y.data, [b.data for b in biases])
    assert out.dtype == dtype and np.array_equal(out.data, want)
    gy, gb = oracles.branch_major_grads_loops(g, p)
    assert np.array_equal(y.grad, gy)
    for b, want_b in zip(biases, gb):
        assert np.array_equal(b.grad, want_b)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("t_len", [1, 7])
def test_mix_rows_matches_its_loop_reference(dtype, tol, p, t_len):
    rng = np.random.default_rng(10 * p + t_len)
    parts = [Tensor(rng.normal(size=(t_len, 6)).astype(dtype), requires_grad=True)
             for _ in range(p)]
    alpha = Tensor(oracles.softmax_rows(rng.normal(size=(t_len, p))).astype(dtype),
                   requires_grad=True)
    g = rng.normal(size=(t_len, 6)).astype(dtype)
    with Tape():
        out = oracles.mix_rows(parts, alpha)
        backward(tsum(mul(out, Tensor(g))))
    arrays = [v.data for v in parts]
    d_parts, d_alpha = oracles.mix_rows_grads_loops(arrays, alpha.data, g)
    pairs = [(out.data, oracles.mix_rows_loops(arrays, alpha.data)), (alpha.grad, d_alpha)]
    pairs += [(v.grad, want) for v, want in zip(parts, d_parts)]
    for got, want in pairs:
        # within tol of the largest reference magnitude
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())
