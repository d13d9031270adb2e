"""Stateful property tests: dynamic tries vs a model under random
insert/delete/lookup interleavings (hypothesis RuleBasedStateMachine)."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.routing import Prefix, RoutingTable
from repro.tries import BinaryTrie, DPTrie, HashReferenceMatcher

WIDTH = 16  # small width keeps the explored space dense

prefix_st = st.builds(
    lambda value, length: Prefix(
        value & (((1 << length) - 1) << (WIDTH - length) if length else 0),
        length,
        WIDTH,
    ),
    st.integers(0, (1 << WIDTH) - 1),
    st.integers(0, WIDTH),
)
address_st = st.integers(0, (1 << WIDTH) - 1)
hop_st = st.integers(0, 15)


class _TrieMachine(RuleBasedStateMachine):
    """Drive a trie and the RoutingTable oracle with the same operations."""

    trie_factory = None  # set by subclasses

    def __init__(self):
        super().__init__()
        self.model = RoutingTable(WIDTH)
        self.trie = self.trie_factory(width=WIDTH)

    @rule(prefix=prefix_st, hop=hop_st)
    def insert(self, prefix, hop):
        self.model.update(prefix, hop)
        self.trie.insert(prefix, hop)

    @precondition(lambda self: len(self.model) > 0)
    @rule(data=st.data())
    def delete(self, data):
        prefix = data.draw(st.sampled_from(self.model.prefixes()))
        self.model.remove(prefix)
        self.trie.delete(prefix)

    @rule(address=address_st)
    def lookup(self, address):
        assert self.trie.lookup(address) == self.model.lookup(address)

    @invariant()
    def sizes_agree(self):
        if hasattr(self.trie, "__len__"):
            assert len(self.trie) == len(self.model)


class BinaryTrieMachine(_TrieMachine):
    trie_factory = staticmethod(lambda width: BinaryTrie(width=width))


class DPTrieMachine(_TrieMachine):
    trie_factory = staticmethod(lambda width: DPTrie(width=width))


class HashRefMachine(_TrieMachine):
    trie_factory = staticmethod(lambda width: HashReferenceMatcher(width=width))

    @invariant()
    def sizes_agree(self):  # HashReferenceMatcher has no __len__
        pass


TestBinaryTrieStateful = BinaryTrieMachine.TestCase
TestDPTrieStateful = DPTrieMachine.TestCase
TestHashRefStateful = HashRefMachine.TestCase

# Plain assignments, not a module-level loop: pytest collects any
# module global bound to a TestCase, so a leftover loop variable would
# run the last machine a second time.
_MACHINE_SETTINGS = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestBinaryTrieStateful.settings = _MACHINE_SETTINGS
TestDPTrieStateful.settings = _MACHINE_SETTINGS
TestHashRefStateful.settings = _MACHINE_SETTINGS
