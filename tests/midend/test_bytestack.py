"""Unit + property tests for byte-stack code generation.

The generated assignments are executed with the real interpreter, so
these tests check the *semantics* of the synthesized code: extracting a
header from the stack and writing it back must round-trip; shifts must
move regions like a dataplane removing/inserting headers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.frontend import astnodes as ast
from repro.ir.printer import expr_text
from repro.midend.bytestack import BS_LEN_VAR, ByteStack
from repro.targets.interpreter import Env, HeaderValue, Interpreter


def make_header(widths):
    fields = [(f"f{i}", ast.BitType(width=w)) for i, w in enumerate(widths)]
    return ast.HeaderType(name="h_t", fields=fields)


IPV4ISH = make_header([4, 4, 8, 16, 16, 3, 13, 8, 8, 16, 32, 32])  # 20 B


def fresh_env(bs: ByteStack, data: bytes):
    env = Env()
    stack = HeaderValue(bs.header_type())
    for i, byte in enumerate(data[: bs.size]):
        stack.fields[f"b{i}"] = byte
    env.define("upa_bs", stack)
    env.define(BS_LEN_VAR, min(len(data), bs.size))
    return env, stack


def run(stmts, env):
    Interpreter({}).exec_block(stmts, env)


def hdr_lvalue(name="hdr"):
    expr = ast.PathExpr(name=name)
    return expr


class TestReadBits:
    def test_single_byte(self):
        bs = ByteStack(4)
        expr = bs.read_bits(1, 0, 8)
        assert expr_text(expr) == "upa_bs.b1"

    def test_concat_two_bytes(self):
        bs = ByteStack(4)
        expr = bs.read_bits(0, 0, 16)
        assert expr_text(expr) == "(upa_bs.b0 ++ upa_bs.b1)"

    def test_sub_byte_slice(self):
        bs = ByteStack(4)
        expr = bs.read_bits(0, 0, 4)
        assert expr_text(expr) == "upa_bs.b0[7:4]"
        expr = bs.read_bits(0, 4, 4)
        assert expr_text(expr) == "upa_bs.b0[3:0]"

    def test_straddling_field(self):
        bs = ByteStack(4)
        # 13 bits starting 3 bits into byte 1 (like fragOffset).
        expr = bs.read_bits(1, 3, 13)
        assert expr_text(expr) == "(upa_bs.b1 ++ upa_bs.b2)[12:0]"

    def test_out_of_range_slot(self):
        bs = ByteStack(2)
        with pytest.raises(AnalysisError):
            bs.slot(2)


class TestRoundTrip:
    def exec_roundtrip(self, header, data):
        bs = ByteStack(header.byte_width)
        env, stack = fresh_env(bs, data)
        hdr = HeaderValue(header)
        env.define("hdr", hdr)
        lv = hdr_lvalue()
        lv.type = header
        run(bs.extract_assigns(0, header, lv), env)
        # Scramble the stack, write back, compare.
        for i in range(bs.size):
            stack.fields[f"b{i}"] = 0xEE
        run(bs.writeback_assigns(0, header, lv), env)
        return bytes(stack.fields[f"b{i}"] for i in range(bs.size))

    def test_ipv4ish_roundtrip(self):
        data = bytes(range(1, 21))
        assert self.exec_roundtrip(IPV4ISH, data) == data

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=20, max_size=20))
    def test_roundtrip_property(self, data):
        assert self.exec_roundtrip(IPV4ISH, data) == data

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.sampled_from([1, 3, 4, 8, 13, 16, 20, 32, 48]),
            min_size=1,
            max_size=6,
        ).filter(lambda ws: sum(ws) % 8 == 0),
        st.data(),
    )
    def test_roundtrip_random_layouts(self, widths, data):
        header = make_header(widths)
        raw = data.draw(st.binary(
            min_size=header.byte_width, max_size=header.byte_width
        ))
        assert self.exec_roundtrip(header, raw) == raw


class TestShift:
    def exec_shift(self, size, data, region_start, delta):
        bs = ByteStack(size)
        env, stack = fresh_env(bs, data)
        run(bs.shift_assigns(region_start, delta), env)
        return bytes(stack.fields[f"b{i}"] for i in range(size))

    def test_shrink_moves_tail_up(self):
        # Remove 2 bytes at offset 2: [aa bb cc dd ee ff] -> tail up.
        out = self.exec_shift(6, bytes([1, 2, 3, 4, 5, 6]), 4, -2)
        assert out[:2] == bytes([1, 2])
        assert out[2:4] == bytes([5, 6])

    def test_grow_moves_tail_down(self):
        out = self.exec_shift(6, bytes([1, 2, 3, 4, 5, 6]), 2, 2)
        assert out[:2] == bytes([1, 2])
        assert out[4:6] == bytes([3, 4])

    def test_zero_delta_no_ops(self):
        bs = ByteStack(4)
        assert bs.shift_assigns(0, 0) == []

    @settings(max_examples=30, deadline=None)
    @given(
        st.binary(min_size=12, max_size=12),
        st.integers(0, 8),
        st.integers(1, 3),
    )
    def test_grow_then_shrink_roundtrips_prefix(self, data, start, delta):
        """Shifting down then up restores everything that stayed in
        range (bytes pushed past the end are lost, as in hardware)."""
        grown = self.exec_shift(12, data, start, delta)
        bs = ByteStack(12)
        env, stack = fresh_env(bs, grown)
        run(bs.shift_assigns(start + delta, -delta), env)
        out = bytes(stack.fields[f"b{i}"] for i in range(12))
        survive = 12 - start - delta
        assert out[: start + survive] == data[: start + survive]

    def test_adjust_len(self):
        bs = ByteStack(8)
        env, _ = fresh_env(bs, b"\x00" * 8)
        run([bs.adjust_len_stmt(-3)], env)
        assert env.get(BS_LEN_VAR) == 5
        run([bs.adjust_len_stmt(4)], env)
        assert env.get(BS_LEN_VAR) == 9
