"""Byte-stack synthesis (paper §5.2/§5.3).

The midend synthesizes "a stack of one-byte headers ... large enough to
store the operational-region" and rewrites all packet accesses onto it.
Here the stack is a synthetic struct ``upa_bs`` with one ``bit<8>``
field per byte (``b0``, ``b1``, ...), plus a running length register
``upa_bs_len`` that deparser MATs adjust when headers are added or
removed.

This module provides the expression/statement builders shared by the
parser→MAT and deparser→MAT passes:

* reading a header field out of the stack (concat + slice of byte slots),
* writing a header back into the stack byte by byte,
* shifting a stack region up or down when a module changes packet size.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import AnalysisError
from repro.frontend import astnodes as ast

BS_INSTANCE = "upa_bs"
BS_LEN_VAR = "upa_bs_len"
PARSER_ERR_VAR = "upa_parser_err"
BS_LEN_WIDTH = 16


class ByteStack:
    """A synthesized byte-stack of a fixed size (Bs from Eq. 4)."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise AnalysisError(f"negative byte-stack size {size}")
        self.size = size

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def header_type(self) -> ast.HeaderType:
        """The synthetic ``upa_bs_t`` header holding all stack bytes."""
        fields = [(f"b{i}", ast.BitType(width=8)) for i in range(self.size)]
        return ast.HeaderType(name="upa_bs_t", fields=fields)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def slot(self, index: int) -> ast.Expr:
        """Lvalue for stack byte ``index`` (``upa_bs.b<i>``)."""
        if not (0 <= index < self.size):
            raise AnalysisError(
                f"byte-stack slot {index} out of range [0, {self.size})"
            )
        expr = ast.MemberExpr(
            base=ast.PathExpr(name=BS_INSTANCE), member=f"b{index}"
        )
        expr.type = ast.BitType(width=8)
        return expr

    def len_expr(self) -> ast.Expr:
        expr = ast.PathExpr(name=BS_LEN_VAR)
        expr.type = ast.BitType(width=BS_LEN_WIDTH)
        return expr

    def read_bits(self, byte_offset: int, bit_offset: int, width: int) -> ast.Expr:
        """Expression reading ``width`` bits at ``byte_offset``+``bit_offset``.

        ``bit_offset`` counts from the MSB of the byte at ``byte_offset``.
        The result is a concat of the covering slots, sliced if the field
        is not byte-aligned — exactly the ``b[12]++b[13]`` /
        ``b[14][7:4]`` shapes of the paper's Fig. 10.
        """
        first = byte_offset + bit_offset // 8
        bit_in_first = bit_offset % 8
        last = byte_offset + (bit_offset + width + 7) // 8  # exclusive
        concat: ast.Expr = self.slot(first)
        for i in range(first + 1, last):
            concat = ast.BinaryExpr(op="++", left=concat, right=self.slot(i))
            concat.type = ast.BitType(width=8 * (i - first + 1))
        total = 8 * (last - first)
        hi = total - 1 - bit_in_first
        lo = hi - width + 1
        if hi == total - 1 and lo == 0:
            return concat
        sliced = ast.SliceExpr(base=concat, hi=hi, lo=lo)
        sliced.type = ast.BitType(width=width)
        return sliced

    def read_field(
        self, base_offset: int, header_type: ast.HeaderType, field: str
    ) -> ast.Expr:
        """Read one header field from the stack."""
        bit_off = 0
        for fname, ftype in header_type.fields:
            if not isinstance(ftype, ast.BitType):
                raise AnalysisError(
                    f"field {header_type.name}.{fname} must be lowered before "
                    f"byte-stack mapping"
                )
            if fname == field:
                return self.read_bits(base_offset, bit_off, ftype.width)
            bit_off += ftype.width
        raise AnalysisError(f"{header_type.name} has no field {field!r}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def extract_assigns(
        self, base_offset: int, header_type: ast.HeaderType, hdr_lvalue: ast.Expr
    ) -> List[ast.AssignStmt]:
        """Copy stack bytes into a header's fields (parser direction)."""
        out: List[ast.AssignStmt] = []
        bit_off = 0
        for fname, ftype in header_type.fields:
            assert isinstance(ftype, ast.BitType)
            lhs = ast.MemberExpr(base=hdr_lvalue.clone(), member=fname)
            lhs.type = ftype
            rhs = self.read_bits(base_offset, bit_off, ftype.width)
            out.append(ast.AssignStmt(lhs=lhs, rhs=rhs))
            bit_off += ftype.width
        return out

    def writeback_assigns(
        self, base_offset: int, header_type: ast.HeaderType, hdr_lvalue: ast.Expr
    ) -> List[ast.AssignStmt]:
        """Copy a header's fields back into stack bytes (deparser direction).

        Each stack byte is assigned the concatenation of the field slices
        covering it; these are the "complex assignment operations" that
        stress per-ALU PHV limits on Tofino (§6.3).
        """
        # Field spans: (bit_start, bit_end, field_name, width)
        spans: List[Tuple[int, int, str, int]] = []
        bit_off = 0
        for fname, ftype in header_type.fields:
            assert isinstance(ftype, ast.BitType)
            spans.append((bit_off, bit_off + ftype.width, fname, ftype.width))
            bit_off += ftype.width
        total_bits = bit_off
        if total_bits % 8 != 0:
            raise AnalysisError(f"header {header_type.name} is not byte aligned")
        # One ``hdr.f`` node per field, shared by the slices of every byte
        # the field covers (nothing downstream rewrites expressions in
        # place; a 128-bit address would otherwise clone its lvalue 16x).
        field_exprs: Dict[str, ast.Expr] = {}
        out: List[ast.AssignStmt] = []
        for byte_index in range(total_bits // 8):
            lo_bit = 8 * byte_index
            hi_bit = lo_bit + 8
            pieces: List[ast.Expr] = []
            for start, end, fname, width in spans:
                if end <= lo_bit or start >= hi_bit:
                    continue
                field_expr = field_exprs.get(fname)
                if field_expr is None:
                    field_expr = field_exprs[fname] = ast.MemberExpr(
                        base=hdr_lvalue.clone(), member=fname
                    )
                    field_expr.type = ast.BitType(width=width)
                cut_lo = max(start, lo_bit)
                cut_hi = min(end, hi_bit)
                if cut_lo > start or cut_hi < end:
                    # Slice indices are MSB-based within the field.
                    hi = width - 1 - (cut_lo - start)
                    lo = width - (cut_hi - start)
                    field_expr = ast.SliceExpr(base=field_expr, hi=hi, lo=lo)
                    field_expr.type = ast.BitType(width=hi - lo + 1)
                pieces.append(field_expr)
            rhs = pieces[0]
            for piece in pieces[1:]:
                width_sum = rhs.type.width + piece.type.width  # type: ignore[union-attr]
                rhs = ast.BinaryExpr(op="++", left=rhs, right=piece)
                rhs.type = ast.BitType(width=width_sum)
            out.append(
                ast.AssignStmt(lhs=self.slot(base_offset + byte_index), rhs=rhs)
            )
        return out

    def shift_assigns(self, region_start: int, delta: int) -> List[ast.AssignStmt]:
        """Move stack bytes ``[region_start, size)`` by ``delta`` bytes.

        ``delta`` < 0 shifts up (header removed: following data moves
        toward the packet start, paper §5.3); ``delta`` > 0 shifts down
        (header inserted).  Copies are ordered so overlapping moves are
        safe within a single action.
        """
        out: List[ast.AssignStmt] = []
        if delta == 0:
            return out
        if delta < 0:
            dst_start = region_start + delta
            count = self.size - region_start
            for i in range(count):
                out.append(
                    ast.AssignStmt(
                        lhs=self.slot(dst_start + i), rhs=self.slot(region_start + i)
                    )
                )
        else:
            count = self.size - region_start - delta
            for i in reversed(range(count)):
                out.append(
                    ast.AssignStmt(
                        lhs=self.slot(region_start + i + delta),
                        rhs=self.slot(region_start + i),
                    )
                )
        return out

    def adjust_len_stmt(self, delta: int) -> ast.AssignStmt:
        """``upa_bs_len = upa_bs_len + delta`` (two's-complement add)."""
        lhs = self.len_expr()
        value = delta % (1 << BS_LEN_WIDTH)
        rhs = ast.BinaryExpr(
            op="+",
            left=self.len_expr(),
            right=ast.IntLit(value=value, width=BS_LEN_WIDTH),
        )
        rhs.type = ast.BitType(width=BS_LEN_WIDTH)
        return ast.AssignStmt(lhs=lhs, rhs=rhs)
