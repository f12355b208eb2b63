"""Shared-suffix action chains.

A trajectory is an immutable (tail node, length) pair over reverse-linked
action nodes. A longer trajectory links a new :class:`Node` to an existing
tail and never mutates it, so any number of trajectories can share a common
prefix; materializing the action list walks the chain once.
"""

from __future__ import annotations


class Node:
    __slots__ = ("action", "parent")

    def __init__(self, action: int, parent: "Node | None") -> None:
        self.action = action
        self.parent = parent


class Trajectory:
    __slots__ = ("tail", "length")

    def __init__(self, tail: Node | None = None, length: int = 0) -> None:
        self.tail = tail
        self.length = length

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

    def __repr__(self) -> str:
        return f"Trajectory(length={self.length})"
