"""Tests for protection values and combination."""

from repro.prot import AccessKind, Prot


class TestProt:
    def test_lattice_combination(self):
        assert (Prot.READ_WRITE & Prot.READ) is Prot.READ
        assert (Prot.ALL & Prot.NONE) is Prot.NONE

    def test_allows(self):
        assert Prot.READ_WRITE.allows(Prot.READ)
        assert Prot.READ_WRITE.allows(Prot.WRITE)
        assert not Prot.READ.allows(Prot.WRITE)
        assert Prot.NONE.allows(Prot.NONE)
        assert not Prot.NONE.allows(Prot.READ)

    def test_read_exec(self):
        assert Prot.READ_EXEC.allows(Prot.EXEC)
        assert not Prot.READ_EXEC.allows(Prot.WRITE)

    def test_remove_a_right(self):
        assert (Prot.READ_WRITE & ~Prot.WRITE) is Prot.READ


class TestAccessKind:
    def test_required_rights(self):
        assert AccessKind.READ.required is Prot.READ
        assert AccessKind.WRITE.required is Prot.WRITE
        assert AccessKind.EXECUTE.required is Prot.EXEC

    def test_every_kind_has_a_requirement(self):
        for kind in AccessKind:
            assert kind.required != Prot.NONE

    def test_need_is_the_requirement_as_a_plain_int(self):
        for kind in AccessKind:
            assert type(kind.need) is int
            assert kind.need == kind.required
