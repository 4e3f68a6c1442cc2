"""Unit tests for the expression/statement interpreter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.targets.interpreter import (
    Env,
    ExitSignal,
    HeaderValue,
    ImState,
    Interpreter,
    default_value,
)


def bit(width):
    return ast.BitType(width=width)


def lit(value, width):
    e = ast.IntLit(value=value, width=width)
    e.type = bit(width)
    return e


def var(name, width):
    e = ast.PathExpr(name=name)
    e.type = bit(width)
    return e


def binop(op, left, right, width):
    e = ast.BinaryExpr(op=op, left=left, right=right)
    e.type = bit(width)
    return e


@pytest.fixture()
def interp():
    return Interpreter({})


@pytest.fixture()
def env():
    return Env()


class TestArithmetic:
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_add_wraps(self, a, b):
        interp = Interpreter({})
        result = interp.eval(binop("+", lit(a, 8), lit(b, 8), 8), Env())
        assert result == (a + b) % 256

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_sub_wraps(self, a, b):
        interp = Interpreter({})
        result = interp.eval(binop("-", lit(a, 8), lit(b, 8), 8), Env())
        assert result == (a - b) % 256

    def test_concat(self, interp, env):
        result = interp.eval(binop("++", lit(0xAB, 8), lit(0xCD, 8), 16), env)
        assert result == 0xABCD

    def test_division_by_zero_raises(self, interp, env):
        with pytest.raises(TargetError):
            interp.eval(binop("/", lit(4, 8), lit(0, 8), 8), env)

    def test_shift(self, interp, env):
        assert interp.eval(binop("<<", lit(1, 8), lit(7, 8), 8), env) == 128
        assert interp.eval(binop("<<", lit(1, 8), lit(8, 8), 8), env) == 0

    @given(st.integers(0, 0xFFFF), st.integers(0, 15), st.integers(0, 15))
    def test_slice_matches_bit_math(self, value, a, b):
        hi, lo = max(a, b), min(a, b)
        interp = Interpreter({})
        expr = ast.SliceExpr(base=lit(value, 16), hi=hi, lo=lo)
        expr.type = bit(hi - lo + 1)
        assert interp.eval(expr, Env()) == (value >> lo) & ((1 << (hi - lo + 1)) - 1)

    def test_unary(self, interp, env):
        neg = ast.UnaryExpr(op="-", operand=lit(1, 8))
        neg.type = bit(8)
        assert interp.eval(neg, env) == 0xFF
        inv = ast.UnaryExpr(op="~", operand=lit(0x0F, 8))
        inv.type = bit(8)
        assert interp.eval(inv, env) == 0xF0

    def test_cast_truncates(self, interp, env):
        expr = ast.CastExpr(target=bit(4), operand=lit(0xAB, 8))
        expr.type = bit(4)
        assert interp.eval(expr, env) == 0xB


class TestAssignment:
    def test_variable_masking(self, interp, env):
        env.define("x", 0)
        interp.assign(var("x", 8), 0x1FF, env)
        assert env.get("x") == 0xFF

    def test_slice_assignment_rmw(self, interp, env):
        env.define("x", 0xABCD)
        lhs = ast.SliceExpr(base=var("x", 16), hi=7, lo=0)
        lhs.type = bit(8)
        interp.assign(lhs, 0xEF, env)
        assert env.get("x") == 0xABEF

    def test_header_field(self, interp, env):
        htype = ast.HeaderType(name="h", fields=[("f", bit(8))])
        env.define("h", HeaderValue(htype))
        lhs = ast.MemberExpr(base=ast.PathExpr(name="h"), member="f")
        lhs.type = bit(8)
        interp.assign(lhs, 42, env)
        assert env.get("h").fields["f"] == 42

    def test_undefined_name(self, interp, env):
        with pytest.raises(TargetError):
            interp.assign(var("ghost", 8), 1, env)


class TestControlFlow:
    def exec_src(self, body, extra_vars=None):
        from repro.frontend.typecheck import check_program

        module = check_program(
            """
            header h_h { bit<8> a; }
            struct s_t { h_h h; }
            program T : implements Unicast<> {
              parser P(extractor ex, pkt p, out s_t hs) {
                state start { transition accept; }
              }
              control C(pkt p, inout s_t hs, im_t im) {
                apply { %s }
              }
              control D(emitter em, pkt p, in s_t hs) { apply { } }
            }
            """
            % body,
            "t",
        )
        control = module.programs["T"].control
        env = Env()
        stype = module.types["s_t"]
        env.define("hs", default_value(stype))
        env.define("im", ImState())
        interp = Interpreter({})
        interp.exec_block(control.apply_body.stmts, env)
        return env

    def test_if_else(self):
        env = self.exec_src(
            "bit<8> r; if (hs.h.a == 0) { r = 1; } else { r = 2; }"
        )
        assert env.get("r") == 1

    def test_switch_matching_case(self):
        env = self.exec_src(
            "bit<8> r; r = 0; switch (hs.h.a) { 0 : { r = 10; } 1 : { r = 20; } }"
        )
        assert env.get("r") == 10

    def test_switch_default(self):
        env = self.exec_src(
            "bit<8> r; r = 0; hs.h.a = 9; "
            "switch (hs.h.a) { 1 : { r = 1; } default : { r = 99; } }"
        )
        assert env.get("r") == 99

    def test_switch_no_match_no_default(self):
        env = self.exec_src(
            "bit<8> r; r = 5; hs.h.a = 9; switch (hs.h.a) { 1 : { r = 1; } }"
        )
        assert env.get("r") == 5

    def test_switch_fallthrough(self):
        env = self.exec_src(
            "bit<8> r; r = 0; hs.h.a = 1; "
            "switch (hs.h.a) { 1 : 2 : { r = 7; } }"
        )
        assert env.get("r") == 7

    def test_exit_raises(self):
        with pytest.raises(ExitSignal):
            self.exec_src("exit;")

    def test_header_validity_ops(self):
        env = self.exec_src(
            "bit<8> r; r = 0; hs.h.setValid(); if (hs.h.isValid()) { r = 1; }"
        )
        assert env.get("r") == 1


class TestImState:
    def test_drop_port_sets_dropped(self):
        im = ImState()
        im.call("set_out_port", [0xFF])
        assert im.dropped

    def test_get_value_fields(self):
        im = ImState(in_port=4, pkt_len=99)
        assert im.call("get_value", ["IN_PORT"]) == 4
        assert im.call("get_value", ["PKT_LEN"]) == 99

    def test_unknown_intrinsic(self):
        with pytest.raises(TargetError):
            ImState().call("get_value", ["BOGUS"])

    def test_copy_from(self):
        a, b = ImState(in_port=1), ImState(in_port=7)
        a.call("copy_from", [b])
        assert a.in_port == 7
