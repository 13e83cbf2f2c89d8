"""Tiny arithmetic expression language for coefficient and data fields.

Grammar: +, -, *, /, ^ (power, right associative), unary minus, parentheses,
the functions abs, sqrt, sin, cos, exp, log, and the constant pi.  Variables
are x1..xn.  Parsed once into a closure evaluating on numpy arrays.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ConfigError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^,]))"
)

_FUNCTIONS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
}


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ConfigError(f"cannot tokenize expression at {rest[:12]!r}")
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


def _describe(token):
    return "end of expression" if token[0] == "end" else repr(token[1])


class _Parser:
    def __init__(self, tokens, nvars):
        self.tokens = tokens
        self.i = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if (kind is not None and tok[0] != kind) or (value is not None and tok[1] != value):
            raise ConfigError(f"expected {_describe((kind, value))}, found {_describe(tok)}")
        self.i += 1
        return tok

    # sum -> product (("+"|"-") product)*
    def sum(self):
        node = self.product()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.product()
            node = (lambda a, b, neg: (lambda *X: a(*X) - b(*X)) if neg else (lambda *X: a(*X) + b(*X)))(
                node, rhs, op == "-"
            )
        return node

    def product(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.unary()
            node = (lambda a, b, div: (lambda *X: a(*X) / b(*X)) if div else (lambda *X: a(*X) * b(*X)))(
                node, rhs, op == "/"
            )
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.unary()
            return lambda *X: -inner(*X)
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            exponent = self.unary()  # right associative, allows -2 exponents
            return lambda *X: base(*X) ** exponent(*X)
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return lambda *X, v=value: np.broadcast_to(np.float64(v), np.shape(X[0])).copy() if np.ndim(X[0]) else v
        if kind == "op" and value == "(":
            self.take()
            node = self.sum()
            self.take("op", ")")
            return node
        if kind == "name":
            self.take()
            if value == "pi":
                return lambda *X: np.broadcast_to(np.float64(math.pi), np.shape(X[0])).copy() if np.ndim(X[0]) else math.pi
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                idx = int(m.group(1)) - 1
                if not 0 <= idx < self.nvars:
                    raise ConfigError(f"variable {value} out of range for dimension {self.nvars}")
                return lambda *X, i=idx: X[i]
            if value in _FUNCTIONS:
                fn = _FUNCTIONS[value]
                self.take("op", "(")
                node = self.sum()
                self.take("op", ")")
                return lambda *X: fn(node(*X))
            raise ConfigError(f"unknown name {value!r} in expression")
        raise ConfigError(f"unexpected {_describe((kind, value))}")


def compile_expression(text, nvars, what):
    """Compile the expression into a callable of nvars coordinate arrays.

    A malformed expression raises ConfigError prefixed with ``what``, the
    name of the config entry that holds it.
    """
    try:
        parser = _Parser(_tokenize(text), nvars)
        node = parser.sum()
        parser.take("end")
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None

    def fn(*X):
        if len(X) != nvars:
            raise ValueError(f"expression expects {nvars} coordinates")
        with np.errstate(invalid="ignore", divide="ignore"):
            return node(*X)

    fn.source = text
    return fn
