"""Shared-suffix action chains.

A trajectory is an immutable (tail node, length) pair over reverse-linked
action nodes. ``extend`` is O(1) and never mutates existing nodes, so any
number of trajectories can share a common prefix; materializing the action
list walks the chain once.
"""

from __future__ import annotations


class _Node:
    __slots__ = ("action", "parent")

    def __init__(self, action: int, parent: "_Node | None") -> None:
        self.action = action
        self.parent = parent


class Trajectory:
    __slots__ = ("tail", "length")

    def __init__(self, tail: _Node | None = None, length: int = 0) -> None:
        self.tail = tail
        self.length = length

    def extend(self, action: int) -> "Trajectory":
        return Trajectory(_Node(action, self.tail), self.length + 1)

    def actions(self) -> list[int]:
        out = []
        node = self.tail
        while node is not None:
            out.append(node.action)
            node = node.parent
        out.reverse()
        if len(out) != self.length:
            raise AssertionError("trajectory length disagrees with its chain")
        return out

    @staticmethod
    def make_node(action: int, parent: _Node | None) -> _Node:
        return _Node(action, parent)

    def __repr__(self) -> str:
        return f"Trajectory(length={self.length})"

