"""Parser for ``.imp`` sources and their lowering to control-flow graphs.

Grammar (comments run ``//`` to end of line)::

    program := fundef+
    fundef  := "fn" ident "(" ident? ")" block
    block   := "{" stmt* "}"
    stmt    := "skip" ";"
             | ident "=" expr ";"
             | ident "=" ident "(" expr? ")" ";"
             | "assume" "(" expr ")" ";"
             | "print" "(" expr ")" ";"
             | ident "[" expr "]" "=" expr ";"
             | "if" "(" expr ")" block ("else" block)?
             | "while" "(" expr ")" block
    expr    := integer | ident | ident "[" expr "]" | "(" expr ")"
             | "!" expr | expr binop expr
    binop   := "+"|"-"|"*"|"/"|"<"|"<="|">"|">="|"=="|"!="|"&&"|"||"

The entry procedure must be named ``main``.  Nesting is capped at
``MAX_NESTING`` levels, so that neither the parser nor a later recursion
over a parsed program can exhaust the stack: an expression's syntax tree
may be that deep (a leaf is one level), that many parentheses, brackets
and ``!`` may enclose a point of it, and that many blocks may nest (a
procedure's body is the first).  A printed expression reparses, since its
parentheses are never deeper than its tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cfg import Cfg, CfgError, Loc, Proc, Program
from .lower import BlockItem, GraphBuilder, IfBlock, WhileBlock
from .loops import analyze_loops
from .syntax import (
    And,
    ArrayRead,
    ArrayWrite,
    Assign,
    Assume,
    Binop,
    Call,
    Expr,
    IntLit,
    Not,
    Or,
    Print,
    Skip,
    Stmt,
    Var,
)

KEYWORDS = {"fn", "skip", "assume", "print", "if", "else", "while"}

MAX_NESTING = 64

# Binary operators by precedence; all are left-associative.
_PREC = {
    "||": 1, "&&": 2,
    "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
    "+": 4, "-": 4, "*": 5, "/": 5,
}

_PUNCT = (
    "<=", ">=", "==", "!=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", "=",
    "+", "-", "*", "/", "<", ">", "!",
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "kw" | punctuation itself | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.open = 0  # parentheses, brackets and `!`s being parsed
        self.blocks = 0  # blocks being parsed

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            want = what or repr(kind)
            raise ParseError(f"expected {want}, found {t.text!r}", t.line, t.col)
        return self.next()

    def expect_kw(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "kw" or t.text != word:
            raise ParseError(f"expected {word!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    # -- expressions, precedence climbing ----------------------------------
    #
    # Each function returns an expression with the depth of its tree.

    def expr(self) -> Expr:
        return self._binary(1)[0]

    def _too_deep(self, t: Token) -> ParseError:
        return ParseError(f"expression nested deeper than {MAX_NESTING} levels", t.line, t.col)

    def _deeper(self, depth: int, t: Token) -> int:
        """The depth of a node built at ``t`` over a child ``depth`` deep."""
        if depth >= MAX_NESTING:
            raise self._too_deep(t)
        return depth + 1

    def _inside(self, t: Token, parse, *args) -> tuple[Expr, int]:
        """``parse(*args)`` within one more parenthesis, bracket or ``!``,
        opened at ``t``."""
        if self.open >= MAX_NESTING:
            raise self._too_deep(t)
        self.open += 1
        out = parse(*args)
        self.open -= 1
        return out

    def _binary(self, min_prec: int) -> tuple[Expr, int]:
        e, depth = self._unary()
        while _PREC.get(self.peek().kind, 0) >= min_prec:
            t = self.next()
            rhs, rdepth = self._binary(_PREC[t.kind] + 1)
            if t.kind == "||":
                e = Or(e, rhs)
            elif t.kind == "&&":
                e = And(e, rhs)
            else:
                e = Binop(t.kind, e, rhs)
            depth = self._deeper(max(depth, rdepth), t)
        return e, depth

    def _unary(self) -> tuple[Expr, int]:
        t = self.peek()
        if t.kind == "!":
            self.next()
            e, depth = self._inside(t, self._unary)
            return Not(e), self._deeper(depth, t)
        return self._atom()

    def _atom(self) -> tuple[Expr, int]:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text)), 1
        if t.kind == "ident":
            self.next()
            if self.peek().kind == "[":
                bracket = self.next()
                idx, depth = self._inside(bracket, self._binary, 1)
                self.expect("]")
                return ArrayRead(t.text, idx), self._deeper(depth, bracket)
            return Var(t.text), 1
        if t.kind == "(":
            self.next()
            out = self._inside(t, self._binary, 1)
            self.expect(")")
            return out
        raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)

    # -- statements ---------------------------------------------------------

    def block(self) -> list[BlockItem]:
        t = self.expect("{")
        if self.blocks >= MAX_NESTING:
            raise ParseError(f"blocks nested deeper than {MAX_NESTING} levels", t.line, t.col)
        self.blocks += 1
        items: list[BlockItem] = []
        while self.peek().kind != "}":
            items.append(self.stmt())
        self.expect("}")
        self.blocks -= 1
        return items

    def stmt(self) -> BlockItem:
        t = self.peek()
        if t.kind == "kw":
            if t.text == "skip":
                self.next()
                self.expect(";")
                return Skip()
            if t.text == "assume":
                self.next()
                self.expect("(")
                e = self.expr()
                self.expect(")")
                self.expect(";")
                return Assume(e)
            if t.text == "print":
                self.next()
                self.expect("(")
                e = self.expr()
                self.expect(")")
                self.expect(";")
                return Print(e)
            if t.text == "if":
                self.next()
                self.expect("(")
                cond = self.expr()
                self.expect(")")
                then_body = tuple(self.block())
                else_body: tuple[BlockItem, ...] = ()
                if self.peek().kind == "kw" and self.peek().text == "else":
                    self.next()
                    else_body = tuple(self.block())
                return IfBlock(cond, then_body, else_body)
            if t.text == "while":
                self.next()
                self.expect("(")
                cond = self.expr()
                self.expect(")")
                return WhileBlock(cond, tuple(self.block()))
            raise ParseError(f"unexpected keyword {t.text!r}", t.line, t.col)
        if t.kind == "ident":
            name = self.next().text
            nxt = self.peek()
            if nxt.kind == "[":
                self.next()
                idx = self.expr()
                self.expect("]")
                self.expect("=")
                rhs = self.expr()
                self.expect(";")
                return ArrayWrite(name, idx, rhs)
            self.expect("=")
            # `x = f(...)` is a call statement: the expression language has
            # no call form, so IDENT "(" after "=" is unambiguous.
            if self.peek().kind == "ident" and self.peek(1).kind == "(":
                callee = self.next().text
                self.next()  # (
                actual: Optional[Expr] = None
                if self.peek().kind != ")":
                    actual = self.expr()
                self.expect(")")
                self.expect(";")
                return Call(name, callee, actual)
            rhs = self.expr()
            self.expect(";")
            return Assign(name, rhs)
        raise ParseError(f"expected a statement, found {t.text!r}", t.line, t.col)

    def fundef(self) -> tuple[str, Optional[str], list[BlockItem], Token]:
        kw = self.expect_kw("fn")
        name = self.expect("ident", "a procedure name").text
        self.expect("(")
        param: Optional[str] = None
        if self.peek().kind == "ident":
            param = self.next().text
        self.expect(")")
        body = self.block()
        return name, param, body, kw


def lower_body(body: list[BlockItem], first_id: int = 0) -> Cfg:
    """Lower a statement block into a Cfg with a fresh entry and exit."""
    b = GraphBuilder(next_id=first_id)
    entry = b.fresh()
    b.protected.add(entry)
    exit_loc_holder: list[Loc] = []
    if not body:
        exit_loc = b.fresh()
        b.edge(entry, Skip(), exit_loc)
        exit_loc_holder.append(exit_loc)
    else:
        # The exit is not preallocated: the final statement's landing
        # location (fresh, or the last construct's own join/exit) is it.
        cur = entry
        for item in body[:-1]:
            cur = b.lower_item(item, cur)
        exit_loc_holder.append(b.lower_item(body[-1], cur))
    return Cfg(
        locs=frozenset(b.locs),
        edges=frozenset(b.edges),
        entry=entry,
        exit=exit_loc_holder[0],
    )


def parse_program(text: str) -> Program:
    """Parse source text; returns a Program whose Cfgs pass all invariants.

    Raises ParseError with line/column on syntax errors, and CfgError for
    duplicate procedures, unresolved or mis-parameterized calls, recursive
    call cycles, or a missing ``main``.
    """
    parser = _Parser(tokenize(text))
    if parser.peek().kind == "eof":
        t = parser.peek()
        raise ParseError("empty program", t.line, t.col)
    defs: dict[str, tuple[Optional[str], list[BlockItem]]] = {}
    while parser.peek().kind != "eof":
        name, param, body, kw = parser.fundef()
        if name in defs:
            raise ParseError(f"duplicate procedure {name!r}", kw.line, kw.col)
        defs[name] = (param, body)

    program = Program(procedures={}, main="main")
    for name, (param, body) in defs.items():
        cfg = lower_body(body)
        program.procedures[name] = Proc(name, param, cfg)
    if "main" not in program.procedures:
        raise CfgError("no procedure named 'main'")

    for proc in program.procedures.values():
        analyze_loops(proc.cfg)  # reducibility and reachability
    program.call_order()  # rejects bad calls and recursion
    return program


def parse_stmt_text(text: str) -> Stmt:
    """Parse a single simple statement, e.g. for session scripts."""
    parser = _Parser(tokenize(text))
    item = parser.stmt()
    parser.expect("eof", "end of statement")
    if isinstance(item, (IfBlock, WhileBlock)):
        t = parser.peek()
        raise ParseError("expected a simple statement", t.line, t.col)
    return item


def parse_expr_text(text: str) -> Expr:
    parser = _Parser(tokenize(text))
    e = parser.expr()
    parser.expect("eof", "end of expression")
    return e
