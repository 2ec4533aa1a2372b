"""Pins for trace compilation: the packed arena of every registered
workload, the closed-form coalescing of the pattern helpers, and the
packer's runaway guard, and the packer and the compute pad each
against a per-record reference that defines their output.

``PINNED_ARENAS`` holds a literal SHA-256 digest over all six arena
buffers (``op_kind``, ``op_pc``, ``op_count``, ``txn_off``, ``txns``,
``warp_bounds``; each prefixed by its name, type code and length) for
every workload in ``REGISTRY.names()`` at smoke and test scale, 2 SMs,
seed 1; ``PINNED_ARENAS_15SM`` does the same at smoke scale on the
paper's 15 SMs.  Any change to the pattern helpers, the coalescer or the
packer that alters a single transaction, pc or warp boundary fails here,
before it can move a simulation result.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.spec import RunSpec, arena_for_spec
from repro.gpu.coalescer import coalesce, warp_addresses
from repro.workloads import arena as arena_module
from repro.workloads import patterns
from repro.workloads.arena import PackedTraceArena, reset_arena_cache
from repro.workloads.benchmarks import workload_names
from repro.workloads.patterns import (
    ELEMENT,
    Region,
    coalesced_load,
    interleave,
    coalesced_store,
    strided_blocks,
    strided_load,
    strided_store,
    unit_stride_blocks,
)
from repro.workloads.trace import (
    LOAD,
    STORE,
    WarpInstruction,
    compute_block,
    load_instruction,
    store_instruction,
)

BUFFERS = ("op_kind", "op_pc", "op_count", "txn_off", "txns", "warp_bounds")

PINNED_ARENAS = {
    # smoke
    ("2DCONV", "smoke"):
        "bc86ea28e77e36f0b60e2573f0e44ee9d7caf9ee104c3dd391f89499b1972d09",
    ("2MM", "smoke"):
        "7acc8153e7920649d57981bcf405e7e58aa42e0b9613046327b7386c895eb654",
    ("3MM", "smoke"):
        "d3a9243b84ed96c6b543fe30c33982c4bd0e3d06d06fff64ca5e3815c25b1817",
    ("ATAX", "smoke"):
        "98fe5b99efc8e7bfbe300692922a3a34a15a958628273d68df963e30849cf654",
    ("BICG", "smoke"):
        "b6505ed8dde84ab333b120c084a191b6393d228eac4b409d1717abcf0f88cca7",
    ("cfd", "smoke"):
        "7fe14d5185311c7de6bf90c59d4534091cb0233f016b91e45c5a5014126e5a52",
    ("FDTD", "smoke"):
        "97c959c05aa10caad3a13ea9087974c5db06886018cb70444f6df3f2f9f89b19",
    ("gaussian", "smoke"):
        "dbfff3c26bb665e4991d86bd324ba2176d9063c260ce7ffd7d13635eca256ac4",
    ("GEMM", "smoke"):
        "cb5b38b1874859a0fbd94624f9d34f00a8e1226acf8dcfa4f052151557e634bf",
    ("GESUMMV", "smoke"):
        "4bee7737942fb1143c4761ca5f52efdcb9858bb3733ef2b82aa5ab973650a15a",
    ("II", "smoke"):
        "f2f76e4158d33e881ad8c1d7e05391df5d6599a9994b4d3c20169fc8dc382834",
    ("MVT", "smoke"):
        "2d6c05edb6b30848f0ca589be9754c659410b044ae750ee5f951f713fc9a887e",
    ("PVC", "smoke"):
        "7e8a21224a49c08177978f3842690a120fb4265d47f48dea5242276429b35991",
    ("PVR", "smoke"):
        "5dcfd9e8a0eb45dc634ea2306d0aa424249c9f0d35533f09c03879b21f3b0487",
    ("pathf", "smoke"):
        "7d67fe449a8a0c19b852548b0a788a3180b442782f1ccdd7ed1c5a8bec04ba6b",
    ("SS", "smoke"):
        "4bcb5c92f362e6119af4d2a3aebc17b26df787c4122285eb460e589f49ddf38e",
    ("srad_v1", "smoke"):
        "59bb9b5676a905e85570b1933d795fdf91ad3876527f0782864aafeb83b63320",
    ("SM", "smoke"):
        "403d4e106758076acd308ce119656654333008d6cb39c4938affe1bbc08f1a0b",
    ("SYR2K", "smoke"):
        "0aaaeaed30230740144751555b0fcd7735936327d08d445c9ff9ac9fc139c8bf",
    ("mri-g", "smoke"):
        "e4bb779ace225dadf82f064ad50ab9b8134c932db336a53a9f675b6355e2e815",
    ("histo", "smoke"):
        "6753fc5ab5d4eb48a706032347d14188bce7a5d2ccd104e61abaa08e870dc238",
    ("conv2d", "smoke"):
        "4d9b548bd39fd420eeeb61a6af35ce55fe8fd6bf2c87e4ecca4a31857e099522",
    ("gemm-tile", "smoke"):
        "a98b26bac54e7cdd107ecb20b96352275214eeeec991ec50efb610818877dbbd",
    ("attention", "smoke"):
        "d5349f85b671c57726d42565cfb349b6748d54f1d868d93ec26dc1c3e5ee4fbe",
    # test
    ("2DCONV", "test"):
        "865f7020bded797327856d4dc06a3dde05ffc4e82b4f2cca5e6c76ee3e1b8739",
    ("2MM", "test"):
        "fbcdba930b12a87b5d8b688610e13299f1a152b8bf2b260def85c129e95a058a",
    ("3MM", "test"):
        "2d2d6e35cf4968c0fcc97057b350e298a014d771722399fa1885b1c260265880",
    ("ATAX", "test"):
        "9e7bd83f0208bea8ae7711e8a7c8dfc5d6d9293d02898eb9c6b894a441141301",
    ("BICG", "test"):
        "b0bbe5003b506e9ca1c167d889262b670df6f95ec8b2d24d340aeeb67285fd96",
    ("cfd", "test"):
        "217501a9755c4db4f9a2ea881a60c0c87971db2e9d4f4f999a35894a8eb3f727",
    ("FDTD", "test"):
        "2a4380de72bd11803d807a6205f4ffee5e4fcd4a866b34d34b0f717be80d7bdf",
    ("gaussian", "test"):
        "543213c96a1a14b42654a5fe8c7e3118ec2a89889121c1fe25f9db9e60fca64b",
    ("GEMM", "test"):
        "19e9bb7e18c4d427440789cc3cafaae3980e07e0dbcdcb823c985aa3100df57d",
    ("GESUMMV", "test"):
        "9f1845c92fc3b77dcf3bff54c140e38bc38601dd17029e5033510f434ff77ebb",
    ("II", "test"):
        "c1241f8b9bd650b131b82edbd7808091b8acbdc4a5a2db087d74695e27cdcbfc",
    ("MVT", "test"):
        "6d6060dfbb54a99928f116fb5d0978cb7c0d03a1ce4465d039ab9f00fbbc054e",
    ("PVC", "test"):
        "8e37e88423b880e34d5733b8060e404fc6833422e6206c45959d7ac1208a1cf1",
    ("PVR", "test"):
        "10378405fe516dca7bfa335ffc54cb9ea8bebe1a2d92bae95fd92a2191c53486",
    ("pathf", "test"):
        "9c892aced8919a054a4074e8f76848ba1f404ae57744374a7fbf14fb2b950a56",
    ("SS", "test"):
        "d7e44e6f942af57f1c00aa6d57152a9ce228d96dee1610096ff06de2cea7d792",
    ("srad_v1", "test"):
        "153eb4af19b39cd5bd3927d1af1052991df6f4d4a62043747e28f9fe329e9098",
    ("SM", "test"):
        "57c4c4286e3ec5909312fa7f790e8564626439ce373552ace71416d360d603c3",
    ("SYR2K", "test"):
        "bfa2769686cc5862c51d604ef3cd244b3fdf84574b47cfa77032f9d913dd3992",
    ("mri-g", "test"):
        "deec3ca267c712ba1323366e544fe141a91c4b88585d9141bf2f68ec7f6622e2",
    ("histo", "test"):
        "b7cb31adca5fab8be948b51bec2647ff3a5d48fd5eed5753acf88ec1c62c0e51",
    ("conv2d", "test"):
        "0fa5ec539bc6966967301f9326c15e783841f10ea921a4a0c6865a5e77880929",
    ("gemm-tile", "test"):
        "63f4a768afcda742e878963164c1dbd9c6def463c8b37ccf7f5b539dc2cbb361",
    ("attention", "test"):
        "0081917757c7d59fcc44625aa3b6bb453dd4253fe175d855fe6f94175a22625d",
}


#: the paper's machine shape (Table I: 15 SMs) at smoke scale, seed 1;
#: pins the per-warp offsets across many SMs, which 2 SMs do not reach
PINNED_ARENAS_15SM = {
    "2DCONV":
        "8e38bdcaaed058b46e9256dc6312c737c196c04f48790a499518741ab7e78dbd",
    "2MM":
        "51693caafc7f2bb8906ff9763ca6417838f04eb2b5e41220d6b938c1ec6e005c",
    "3MM":
        "1ad4d519b18feb0ffa812e3aed9566de27fb47dc52d2b1922d842ddd0c9afba7",
    "ATAX":
        "09c258e2bd95a7a7939ab988f0ed5a011d52c8b41470c582d3cc9e962ef52fc4",
    "BICG":
        "fb9685a097c0fa4e476f4ffa7cc3dfbe41fea018a5661a69a9a24bb2cf594113",
    "cfd":
        "bebb99b82782666c46f93315c29dcf8c329273c88afd71f6b5b9153b9108c221",
    "FDTD":
        "907674266e740a3d72a8dd94171651aefc587180ccb76ce776e31c2d21997b64",
    "gaussian":
        "296aa1b1724008307c21a805993f4e3207b2f77538567634aff84cd99741373c",
    "GEMM":
        "5a37f27eeaeefb71913b39e1885a997c8fde75464b1d11659388496b96d1eec6",
    "GESUMMV":
        "f8bcbbbd899299588f1d9c565135b150ea473c5e3685c3a5c9bf603aecd1def3",
    "II":
        "a128ab6be1887b3a20e13499120d890b5a095cf73916cec20b200a2390922af8",
    "MVT":
        "973075b1f75db361d6a954111cdb2cb1293184a9edd423f6112d704fd2b39970",
    "PVC":
        "181280a7300b20d1032e35b9d7ffe382767f8a83d30e3101ac9c9bc6bb62923f",
    "PVR":
        "22c6e269b6cb97348788072ea97bc42ee9726c5dc9f5fc91fdee05f341c06393",
    "pathf":
        "62acc5e6906f3dccd9f89e3659c578502e6743035d7e74f839683c9182426817",
    "SS":
        "378bbbccf11a280c1a7972a548d76ba327ab14e7aab6615f57dc6691ad8013ff",
    "srad_v1":
        "c4bf9e39899badf26abc6d869b84350f8d14537bc58763826923f9257fd97ef1",
    "SM":
        "8ae2fec0ac02b0e3ea0792d83be06917c75ac34e44d927264edc21d59add486a",
    "SYR2K":
        "5e78660b95b0deab31620ba24973398bd925dad32a3cbaca21293712bca8a116",
    "mri-g":
        "c8e23e92e091fcc005fb9daa47dff7769861dead867e9db16ccdac5d5020c542",
    "histo":
        "fd3d048e82400ce5bbc6fec5645147eb143081e9ef4732a12642b9549a2c809b",
    "conv2d":
        "d9050b5d0313aa8dfaa61c2ac27a0ca48b93caed97637f9c03625a5f38212e1c",
    "gemm-tile":
        "ec5d17c5bf36d692e4028e2999192bd0437ac60690a79b8b61f5bea5a624a7b6",
    "attention":
        "24a0d5e0d32d172aedd994b904657e4445c1951f8906aa9fa025176f587756c1",
}


def arena_digest(arena: PackedTraceArena) -> str:
    digest = hashlib.sha256()
    for name in BUFFERS:
        buf = getattr(arena, name)
        digest.update(f"{name}:{buf.typecode}:{len(buf)}:".encode())
        digest.update(buf.tobytes())
    return digest.hexdigest()


@pytest.fixture(autouse=True)
def fresh_arena_cache():
    reset_arena_cache()
    yield
    reset_arena_cache()


def test_every_registered_workload_is_pinned():
    assert sorted({name for name, _ in PINNED_ARENAS}) == sorted(
        workload_names()
    )


@pytest.mark.parametrize("scale", ["smoke", "test"])
def test_arena_digests_are_pinned(scale):
    mismatched = []
    for name in workload_names():
        arena = arena_for_spec(RunSpec.build(
            "L1-SRAM", name, gpu_profile="fermi", scale=scale, num_sms=2,
            seed=1,
        ))
        if arena_digest(arena) != PINNED_ARENAS[(name, scale)]:
            mismatched.append(name)
    assert mismatched == []


def test_paper_shape_digests_are_pinned():
    assert sorted(PINNED_ARENAS_15SM) == sorted(workload_names())
    mismatched = []
    for name in workload_names():
        arena = arena_for_spec(RunSpec.build(
            "L1-SRAM", name, gpu_profile="fermi", scale="smoke", num_sms=15,
            seed=1,
        ))
        if arena_digest(arena) != PINNED_ARENAS_15SM[name]:
            mismatched.append(name)
    assert mismatched == []


@pytest.mark.parametrize("num_sms, warps_per_sm, runaway, records", [
    (1, 1, (0, 0), [compute_block(1)]),
    # a runaway warp among finite ones, its records carrying transactions
    (2, 4, (1, 2), [load_instruction(0x40, [0, 4]), compute_block(3)]),
], ids=["lone-warp", "among-finite-warps"])
def test_runaway_stream_pulls_at_most_one_slice_past_the_budget(
    monkeypatch, num_sms, warps_per_sm, runaway, records,
):
    limit = 100
    monkeypatch.setattr(arena_module, "MAX_ARENA_OPS", limit)
    most = limit + arena_module.PACK_SLICE
    pulls = 0

    def endless():
        nonlocal pulls
        for record in itertools.cycle(records):
            pulls += 1
            if pulls > most:  # a packer that drains without bound
                raise AssertionError(f"packer pulled {pulls:,} records")
            yield record

    def streams(sm_id, warp_id):
        if (sm_id, warp_id) == runaway:
            return endless()
        return [compute_block(1)] * 5

    exact = PackedTraceArena.from_streams(
        "at-budget", 1, 1, lambda sm_id, warp_id: [compute_block(1)] * limit
    )
    assert exact.num_ops == limit
    with pytest.raises(RuntimeError) as raised:
        PackedTraceArena.from_streams(
            "endless", num_sms, warps_per_sm, streams
        )
    message = str(raised.value)
    assert "'endless'" in message
    assert f"warp {runaway}" in message
    earlier = 5 * (runaway[0] * warps_per_sm + runaway[1])  # finite ops
    assert limit - earlier < pulls <= most


# ----------------------------------------------------------------------
# the slice packer and the inline pad equal the per-record originals

def reference_pack(num_sms, warps_per_sm, streams):
    """The per-record packer the slice packer replaced: the six buffers
    it builds from ``streams(sm_id, warp_id)``."""
    op_kind, op_pc, op_count = array("b"), array("q"), array("q")
    txn_off, txns, warp_bounds = array("q", [0]), array("q"), array("q", [0])
    for sm_id in range(num_sms):
        for warp_id in range(warps_per_sm):
            for kind, pc, count, blocks in streams(sm_id, warp_id):
                op_kind.append(kind)
                op_pc.append(pc)
                op_count.append(count)
                txns.extend(blocks)
                txn_off.append(len(txns))
            warp_bounds.append(len(op_kind))
    return op_kind, op_pc, op_count, txn_off, txns, warp_bounds


records = st.one_of(
    st.builds(compute_block, st.integers(1, 5000)),
    st.builds(
        WarpInstruction,
        kind=st.sampled_from([LOAD, STORE]),
        pc=st.integers(0, 1 << 20),
        count=st.just(1),
        transactions=st.lists(
            st.integers(0, 1 << 40), max_size=4
        ).map(tuple),
    ),
)


@st.composite
def machines(draw):
    """(slice size, SMs, warps per SM, every warp's record list).

    A warp cycles a small drawn pool of records from its own starting
    point, so it can run to a length just below, at or just above one
    or two slices -- the real slice size included -- without drawing
    each record; a length of 0 is an empty warp."""
    size = draw(st.sampled_from([1, 2, 3, 7, arena_module.PACK_SLICE]))
    num_sms = draw(st.integers(1, 3))
    warps_per_sm = draw(st.integers(1, 4))
    pool = draw(st.lists(records, min_size=1, max_size=8))
    lengths = st.one_of(
        st.integers(0, 4),
        st.builds(
            lambda slices, step: slices * size + step,
            st.integers(1, 2), st.integers(-1, 1),
        ),
    )
    warps = {}
    for sm_id in range(num_sms):
        for warp_id in range(warps_per_sm):
            start, length = draw(st.integers(0, 7)), draw(lengths)
            warps[sm_id, warp_id] = [
                pool[(start + i) % len(pool)] for i in range(length)
            ]
    return size, num_sms, warps_per_sm, warps


@settings(max_examples=150, deadline=None)
@given(machine=machines())
def test_slice_packer_matches_the_per_record_packer(machine):
    size, num_sms, warps_per_sm, warps = machine

    def streams(sm_id, warp_id):  # a generator, as the kernels return
        yield from warps[sm_id, warp_id]

    with mock.patch.object(arena_module, "PACK_SLICE", size):
        arena = PackedTraceArena.from_streams(
            "drawn", num_sms, warps_per_sm, streams
        )
    expected = reference_pack(num_sms, warps_per_sm, streams)
    for name, want in zip(BUFFERS, expected):
        got = getattr(arena, name)
        assert (name, got.typecode, got.tobytes()) == (
            name, want.typecode, want.tobytes()
        )


def reference_interleave(memory_instructions, apki, rng, capped=None):
    """The pad as it was written with ``rng.uniform``, ``max`` and
    ``min``; appends to *capped* each time the ``int(budget) + 1`` cap
    shortens a pad."""
    budget = 0.0
    for instruction in memory_instructions:
        transactions = max(1, len(instruction.transactions))
        slots = 1000.0 * transactions / apki
        budget += slots - 1
        if budget >= 1.0:
            jitter = rng.uniform(0.9, 1.1)
            pad = max(1, int(budget * jitter))
            if capped is not None and pad > int(budget) + 1:
                capped.append(pad)
            pad = min(pad, int(budget) + 1)
            yield compute_block(pad)
            budget -= pad
        yield instruction


memory_records = st.builds(
    WarpInstruction,
    kind=st.sampled_from([LOAD, STORE]),
    pc=st.integers(0, 1 << 16),
    count=st.just(1),
    transactions=st.lists(
        st.integers(0, 1 << 32), max_size=32
    ).map(tuple),
)

#: sparse densities leave whole-slot budgets in the tens or hundreds,
#: where the +10% jitter overshoots ``int(budget) + 1`` and the cap binds
apkis = st.one_of(st.floats(0.5, 20.0), st.floats(20.0, 2000.0))


@settings(max_examples=300, deadline=None)
@given(
    memory=st.lists(memory_records, max_size=60),
    apki=apkis,
    seed=st.integers(0, 1 << 32),
)
@example(memory=[WarpInstruction(LOAD, 0x40, 1, (1,) * 32)] * 8, apki=3.0,
         seed=1)
def test_inline_pad_matches_the_uniform_pad(memory, apki, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert list(interleave(memory, apki, ours)) == list(
        reference_interleave(memory, apki, theirs)
    )
    assert ours.getstate() == theirs.getstate()


def test_the_pad_cap_binds_on_sparse_streams():
    """The reference shows the ``int(budget) + 1`` cap shortening pads
    on the property test's sparse example, so that test covers it."""
    memory = [WarpInstruction(LOAD, 0x40, 1, (1,) * 32)] * 8
    capped = []
    expected = list(reference_interleave(
        memory, 3.0, random.Random(1), capped
    ))
    assert capped
    assert list(interleave(memory, 3.0, random.Random(1))) == expected


# ----------------------------------------------------------------------
# closed-form coalescing equals the general coalescer over the same lanes

#: small regions make most strided walks wrap (the general path),
#: large ones make most stay inside (the closed forms)
regions = st.builds(
    Region,
    base=st.integers(0, 1 << 40),
    size=st.one_of(st.integers(1, 1 << 12), st.integers(1 << 17, 1 << 21)),
)
offsets = st.integers(-(1 << 20), 1 << 20)


def lane_blocks(reg, offset, stride, lanes):
    return tuple(coalesce(
        [reg.addr(offset + lane * stride) for lane in range(lanes)]
    ))


@settings(max_examples=400, deadline=None)
@given(addr=st.integers(0, 1 << 48))
def test_unit_stride_blocks_match_coalesce(addr):
    assert unit_stride_blocks(addr) == tuple(
        coalesce(warp_addresses(addr, ELEMENT))
    )


@settings(max_examples=300, deadline=None)
@given(reg=regions, offset=offsets, pc=st.integers(0, 1 << 16))
def test_coalesced_access_matches_coalesce(reg, offset, pc):
    lanes = warp_addresses(reg.addr(offset), ELEMENT)
    assert coalesced_load(pc, reg, offset) == load_instruction(pc, lanes)
    assert coalesced_store(pc, reg, offset) == store_instruction(pc, lanes)


@settings(max_examples=600, deadline=None)
@given(
    reg=regions,
    offset=offsets,
    stride=st.integers(1, 4096),
    lanes=st.integers(0, 32),
)
def test_strided_blocks_match_coalesce(reg, offset, stride, lanes):
    """Random bases, strides 1-4096, and regions small enough that many
    walks wrap (those take the general path)."""
    expected = lane_blocks(reg, offset, stride, lanes)
    assert strided_blocks(reg, offset, stride, lanes) == expected
    assert strided_load(0x40, reg, offset, stride, lanes) == (
        WarpInstruction(LOAD, 0x40, 1, expected)
    )
    assert strided_store(0x48, reg, offset, stride, lanes) == (
        WarpInstruction(STORE, 0x48, 1, expected)
    )


@pytest.mark.parametrize("stride", [4, 100, 128, 129, 4096])
def test_non_wrapping_accesses_build_no_lane_list(monkeypatch, stride):
    def refuse(addresses):
        raise AssertionError("closed-form access fell back to coalesce")

    monkeypatch.setattr(patterns, "coalesce", refuse)
    reg = Region(base=1 << 28, size=1 << 20)
    assert len(coalesced_load(0, reg, 64).transactions) == 2
    blocks = strided_blocks(reg, 96, stride, 32)
    assert list(blocks) == sorted(set(blocks))
    with pytest.raises(AssertionError):  # a wrapping walk is general
        strided_blocks(reg, reg.size - 8, stride, 32)
