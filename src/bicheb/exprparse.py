"""Tokenizer, parser and evaluator for f(x, y) formula strings.

Grammar, loosest binding first:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          right associative
    atom   := number | 'pi' | 'e' | 'x' | 'y'
            | name '(' expr (',' expr)* ')' | '(' expr ')'

so '^' binds tighter than unary minus: -x^2 is -(x^2).  Functions are the
fixed set sin cos tan exp log sqrt abs pow; evaluation is deterministic and
any NaN/Inf intermediate is reported as an error naming the subexpression.
"""

import math
import re
from typing import NamedTuple

import numpy as np

from .errors import EvalError, ParseError


# Tokens and tree nodes are named tuples: each class takes ~0.05 ms to
# define, a frozen dataclass ~0.35 ms, at every start of a process that
# parses a formula.  They have a frozen dataclass's fields, repr and hash,
# and two nodes of a tree are equal just when they were as dataclasses.


class Token(NamedTuple):
    kind: str  # number | identifier | operator | paren | comma
    text: str
    position: int


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: object


class BinOp(NamedTuple):
    op: str
    left: object
    right: object


class Call(NamedTuple):
    func: str
    args: tuple


FUNCTIONS = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1,
    "log": 1, "sqrt": 1, "abs": 1, "pow": 2,
}
CONSTANTS = {"pi": math.pi, "e": math.e}

# Parsing, evaluating and printing recurse: ``parse`` rejects formulas
# nested deeper (brackets, calls, powers, negations; about five parser frames
# each) or with a taller tree (a sum of k terms is k high) than Python's
# default recursion limit of 1000 frames allows.
_MAX_NESTING = 128
_MAX_HEIGHT = 500

_TOKEN_RE = re.compile(r"""
    (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<identifier>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<operator>[-+*/^])
  | (?P<paren>[()])
  | (?P<comma>,)
""", re.VERBOSE)


def tokenize(source):
    """Split a formula string into tokens, skipping whitespace."""
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"illegal character {source[pos]!r}", pos)
        tokens.append(Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.index = 0
        self.nesting = 0

    def _end_position(self):
        if not self.tokens:
            return 0
        last = self.tokens[-1]
        return last.position + len(last.text)

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self):
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", self._end_position())
        self.index += 1
        return token

    def accept(self, kind, *texts):
        """Consume and return the next token if it is of `kind` and its text
        equals one of `texts`; otherwise consume nothing and return None."""
        token = self.peek()
        if token is None or token.kind != kind or token.text not in texts:
            return None
        self.index += 1
        return token

    def expect(self, kind, text):
        if self.accept(kind, text) is None:
            token = self.peek()
            found = "end of input" if token is None else repr(token.text)
            pos = self._end_position() if token is None else token.position
            raise ParseError(f"expected {text!r}, found {found}", pos)

    def expression(self):
        node = self.term()
        while token := self.accept("operator", "+", "-"):
            node = BinOp(token.text, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while token := self.accept("operator", "*", "/"):
            node = BinOp(token.text, node, self.factor())
        return node

    def factor(self):
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels",
                             self.tokens[self.index - 1].position)
        if self.accept("operator", "-"):
            node = Neg(self.factor())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self):
        base = self.atom()
        if self.accept("operator", "^"):
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        token = self.advance()
        if token.kind == "number":
            return Num(float(token.text))
        if token.kind == "paren" and token.text == "(":
            node = self.expression()
            self.expect("paren", ")")
            return node
        if token.kind == "identifier":
            if self.accept("paren", "("):
                return self.call(token)
            if token.text in ("x", "y"):
                return Var(token.text)
            if token.text in CONSTANTS:
                return Num(CONSTANTS[token.text])
            raise ParseError(f"unknown identifier {token.text!r}", token.position)
        raise ParseError(f"unexpected token {token.text!r}", token.position)

    def call(self, name_token):
        name = name_token.text
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", name_token.position)
        args = [self.expression()]
        while self.accept("comma", ","):
            args.append(self.expression())
        self.expect("paren", ")")
        if len(args) != FUNCTIONS[name]:
            raise ParseError(
                f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}",
                name_token.position)
        return Call(name, tuple(args))


def parse(tokens):
    """Parse a token list into an expression tree."""
    parser = _Parser(tokens)
    if parser.peek() is None:
        raise ParseError("empty expression", 0)
    node = parser.expression()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.position)
    if _height(node) > _MAX_HEIGHT:
        raise ParseError(f"expression tree higher than {_MAX_HEIGHT} levels", 0)
    return node


def _height(node):
    """Number of levels of an expression tree, counted without recursion."""
    height, level = 0, [node]
    while level:
        height += 1
        level = [child for n in level for child in _children(n)]
    return height


def _children(node):
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def parse_expression(source):
    """Convenience wrapper: tokenize and parse in one step."""
    return parse(tokenize(source))


def pretty_print(node):
    """Fully parenthesized source text that re-parses to the same tree.

    A negative literal prints with a leading minus and would re-parse as a
    negation node, so generated trees should carry nonnegative constants
    under explicit Neg nodes (the parser itself never produces negative
    literals).
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{pretty_print(node.operand)})"
    if isinstance(node, BinOp):
        return f"({pretty_print(node.left)} {node.op} {pretty_print(node.right)})"
    if isinstance(node, Call):
        args = ", ".join(pretty_print(a) for a in node.args)
        return f"{node.func}({args})"
    raise TypeError(f"not an expression node: {node!r}")


_MAX_EXACT_EXPONENT = 16

_UNARY_NUMPY = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "abs": np.abs,
}


def _check_finite(value, node):
    if not np.all(np.isfinite(value)):
        raise EvalError("non-finite value", pretty_print(node))
    return value


def _int_power(base, exponent, node):
    # repeated multiplication keeps small integer powers exact
    result = np.ones_like(np.asarray(base, dtype=float)) if isinstance(base, np.ndarray) else 1.0
    for _ in range(abs(exponent)):
        result = result * base
    if exponent < 0:
        if np.any(base == 0):
            raise EvalError("zero raised to a negative power", pretty_print(node))
        result = 1.0 / result
    return result


def _power(base, exponent, node):
    scalar_exponent = None
    if np.ndim(exponent) == 0:
        as_float = float(exponent)
        if as_float.is_integer() and abs(as_float) <= _MAX_EXACT_EXPONENT:
            scalar_exponent = int(as_float)
    if scalar_exponent is not None:
        return _int_power(base, scalar_exponent, node)
    return np.power(base, exponent)


def _eval(node, x, y):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -_eval(node.operand, x, y)
    if isinstance(node, BinOp):
        left = _eval(node.left, x, y)
        right = _eval(node.right, x, y)
        if node.op == "+":
            value = left + right
        elif node.op == "-":
            value = left - right
        elif node.op == "*":
            value = left * right
        elif node.op == "/":
            if np.any(right == 0):
                raise EvalError("division by zero", pretty_print(node))
            value = left / right
        else:
            value = _power(left, right, node)
        return _check_finite(value, node)
    if isinstance(node, Call):
        args = [_eval(a, x, y) for a in node.args]
        if node.func == "log":
            if np.any(args[0] <= 0):
                raise EvalError("log of a nonpositive value", pretty_print(node))
            value = np.log(args[0])
        elif node.func == "sqrt":
            if np.any(args[0] < 0):
                raise EvalError("sqrt of a negative value", pretty_print(node))
            value = np.sqrt(args[0])
        elif node.func == "pow":
            value = _power(args[0], args[1], node)
        else:
            value = _UNARY_NUMPY[node.func](args[0])
        return _check_finite(value, node)
    raise TypeError(f"not an expression node: {node!r}")


# Points in a block of eval_ast's rows: a formula holds the temporaries of
# one block at a time, not of its whole broadcast shape.
_BLOCK_POINTS = 2 ** 16


def _rows(a, shape, rows):
    """The rows `rows` of a as broadcast to shape, as a broadcastable
    array: a slice of a if its first axis is shape's, else a itself."""
    if np.ndim(a) == len(shape) and np.shape(a)[0] == shape[0]:
        return a[rows]
    return a


def eval_ast(node, x, y):
    """Evaluate an expression tree at (x, y).

    Accepts scalars or broadcastable numpy arrays; scalar inputs return a
    plain float.  Evaluation is pure: equal inputs give bitwise-equal
    results.  NaN/Inf intermediates raise instead of propagating, so the
    floating-point warnings they would trigger are suppressed here.

    Arrays whose broadcast shape has more rows than _BLOCK_POINTS points
    hold are evaluated in blocks of whole rows, each of about that many
    points, into one float array of that shape.  Each value is computed as
    in one piece, with the same bits; of faults in two blocks, the first
    block's is raised.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    step = max(1, _BLOCK_POINTS // max(1, math.prod(shape[1:])))
    with np.errstate(all="ignore"):
        if not shape or step >= shape[0]:
            value = _eval(node, x, y)
            return value if isinstance(value, np.ndarray) else float(value)
        out = np.empty(shape)
        for start in range(0, shape[0], step):
            rows = slice(start, start + step)
            out[rows] = _eval(node, _rows(x, shape, rows), _rows(y, shape, rows))
    return out
