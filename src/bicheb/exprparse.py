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
import operator
import re
from typing import NamedTuple

import numpy as np

from .errors import EvalError, ParseError


# Tokens and tree nodes are named tuples: each class takes ~0.05 ms to
# define, a frozen dataclass ~0.35 ms, at every start of a process that
# parses a formula.  They have a frozen dataclass's fields, repr and hash,
# and two nodes of a tree are equal just when they were as dataclasses.


class Token(NamedTuple):
    kind: str  # number | identifier | operator | paren | comma | end
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
# nested deeper (brackets, calls, powers, negations; at most five parser
# frames each) or with a taller tree (a sum of k terms is k high) than Python's
# default recursion limit of 1000 frames allows.
_MAX_NESTING = 128
_MAX_HEIGHT = 500

# How tightly each operator that expression() reads binds: '+' and '-' at
# level 0, '*' and '/' at level 1.  '^' binds tighter still, in power().
_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1}
_TIGHTEST = 1

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
        last = self.tokens[-1] if self.tokens else Token("end", "", 0)
        self.tokens.append(Token("end", "", last.position + len(last.text)))
        self.index = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.index]

    def accept(self, kind, *texts):
        """Consume and return the next token if it is of `kind` and its text
        equals one of `texts`; otherwise consume nothing and return None."""
        if (token := self.peek()).kind == kind and token.text in texts:
            self.index += 1
            return token
        return None

    def expect(self, kind, text):
        if self.accept(kind, text) is None:
            token = self.peek()
            found = "end of input" if token.kind == "end" else repr(token.text)
            raise ParseError(f"expected {text!r}, found {found}", token.position)

    def expression(self, level=0):
        """Factors joined by the operators of `level` or a tighter one, left
        associative.  An operator's right operand takes only tighter ones,
        and is a bare factor after one of the tightest level: no frame
        stands between two levels."""
        node = self.factor()
        while _LEVEL.get((token := self.peek()).text, -1) >= level:
            self.index += 1
            tighter = _LEVEL[token.text] + 1
            node = BinOp(token.text, node,
                         self.factor() if tighter > _TIGHTEST else self.expression(tighter))
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
        token = self.peek()
        self.index += 1
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
        raise _unexpected(token)

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


def _unexpected(token):
    if token.kind == "end":
        return ParseError("unexpected end of input", token.position)
    return ParseError(f"unexpected token {token.text!r}", token.position)


def parse(tokens):
    """Parse a token list into an expression tree."""
    parser = _Parser(tokens)
    if parser.peek().kind == "end":
        raise ParseError("empty expression", 0)
    node = parser.expression()
    if parser.peek().kind != "end":
        raise _unexpected(parser.peek())
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


def _exact(exponent):
    """exponent as an int if it is a scalar integer of at most
    _MAX_EXACT_EXPONENT in magnitude, else None."""
    if (np.ndim(exponent) == 0 and float(exponent).is_integer()
            and abs(exponent) <= _MAX_EXACT_EXPONENT):
        return int(exponent)
    return None


def _power(base, exponent):
    """base ^ exponent: by repeated multiplication, which keeps small
    integer powers exact, for an exponent that _exact accepts."""
    n = _exact(exponent)
    if n is None:
        return np.power(base, exponent)
    # a numpy scalar divides by an underflowed 0 as the arrays do, to inf
    result = np.ones_like(base, dtype=float) if isinstance(base, np.ndarray) else np.float64(1.0)
    for _ in range(abs(n)):
        result = result * base
    return 1.0 / result if n < 0 else result


_OPERATIONS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": _power, "pow": _power, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}

# The operands that an operation refuses before it runs, and the fault
# named; any other value that is not finite is refused after it.
_REFUSED = {
    "/": ("division by zero", lambda left, right: np.any(right == 0)),
    "log": ("log of a nonpositive value", lambda a: np.any(a <= 0)),
    "sqrt": ("sqrt of a negative value", lambda a: np.any(a < 0)),
    "^": ("zero raised to a negative power",
          lambda base, exponent: (_exact(exponent) or 0) < 0 and np.any(base == 0)),
}
_REFUSED["pow"] = _REFUSED["^"]


def _eval(node, x, y):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Neg):
        return -_eval(node.operand, x, y)
    if isinstance(node, BinOp):
        name, args = node.op, (_eval(node.left, x, y), _eval(node.right, x, y))
    elif isinstance(node, Call):
        name, args = node.func, [_eval(a, x, y) for a in node.args]
    else:
        raise TypeError(f"not an expression node: {node!r}")
    fault, refused = _REFUSED.get(name, (None, None))
    if refused is not None and refused(*args):
        raise EvalError(fault, pretty_print(node))
    value = _OPERATIONS[name](*args)
    if not np.all(np.isfinite(value)):
        raise EvalError("non-finite value", pretty_print(node))
    return value


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
