"""Unit tests for the namenode directory service."""

import pytest

from repro.storage import Block, BlockId, LocationRecord, Namenode, StorageError


@pytest.fixture
def namenode():
    nn = Namenode()
    for i in range(4):
        nn.register(Block(BlockId("/f", i), 64.0))
    return nn


REC_A = LocationRecord("local-disk", "n1")
REC_B = LocationRecord("local-disk", "n2")
REC_S3 = LocationRecord("s3")


class TestDirectory:
    def test_register_and_lookup(self, namenode):
        block = namenode.block(BlockId("/f", 0))
        assert block.size_mb == 64.0

    def test_double_registration_rejected(self, namenode):
        with pytest.raises(ValueError):
            namenode.register(Block(BlockId("/f", 0), 64.0))

    def test_unknown_block_raises(self, namenode):
        with pytest.raises(StorageError):
            namenode.block(BlockId("/nope", 0))
        with pytest.raises(StorageError):
            namenode.locations(BlockId("/nope", 0))

    def test_exists(self, namenode):
        assert namenode.exists(BlockId("/f", 1))
        assert not namenode.exists(BlockId("/g", 1))


class TestLocations:
    def test_add_and_list(self, namenode):
        bid = BlockId("/f", 0)
        namenode.add_location(bid, REC_A)
        namenode.add_location(bid, REC_S3)
        assert namenode.locations(bid) == [REC_A, REC_S3]

    def test_duplicate_location_ignored(self, namenode):
        bid = BlockId("/f", 0)
        namenode.add_location(bid, REC_A)
        namenode.add_location(bid, REC_A)
        assert namenode.replication_of(bid) == 1

    def test_remove_location(self, namenode):
        bid = BlockId("/f", 0)
        namenode.add_location(bid, REC_A)
        namenode.remove_location(bid, REC_A)
        assert namenode.locations(bid) == []

    def test_blocks_at_backend_and_node(self, namenode):
        namenode.add_location(BlockId("/f", 0), REC_A)
        namenode.add_location(BlockId("/f", 1), REC_B)
        namenode.add_location(BlockId("/f", 2), REC_S3)
        assert set(namenode.blocks_at("local-disk")) == {BlockId("/f", 0), BlockId("/f", 1)}
        assert namenode.blocks_at("local-disk", "n2") == [BlockId("/f", 1)]
        assert namenode.blocks_at("s3") == [BlockId("/f", 2)]
