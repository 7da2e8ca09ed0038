"""Unit tests for temporal dimensions and snapshots (Definitions 3-4)."""

import pytest

from repro.core import (
    CyclicHierarchyError,
    DuplicateMemberVersionError,
    Interval,
    InvalidRelationshipError,
    MemberVersion,
    ModelError,
    NOW,
    TemporalDimension,
    TemporalRelationship,
    UnknownMemberVersionError,
)


def build_simple():
    """div > {a, b} from t=0; b reclassified under div2 at t=10."""
    d = TemporalDimension("org", "Organization")
    d.add_member(MemberVersion("div", "Division-1", Interval(0), level="Division"))
    d.add_member(MemberVersion("div2", "Division-2", Interval(0), level="Division"))
    d.add_member(MemberVersion("a", "Dept-A", Interval(0), level="Department"))
    d.add_member(MemberVersion("b", "Dept-B", Interval(0), level="Department"))
    d.add_relationship(TemporalRelationship("a", "div", Interval(0)))
    d.add_relationship(TemporalRelationship("b", "div", Interval(0, 9)))
    d.add_relationship(TemporalRelationship("b", "div2", Interval(10)))
    return d


class TestMaintenance:
    def test_duplicate_member_rejected(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0)))
        with pytest.raises(DuplicateMemberVersionError):
            d.add_member(MemberVersion("a", "A'", Interval(5)))

    def test_relationship_requires_known_members(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0)))
        with pytest.raises(UnknownMemberVersionError):
            d.add_relationship(TemporalRelationship("a", "ghost", Interval(0)))

    def test_relationship_outside_member_validity_rejected(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0, 5)))
        d.add_member(MemberVersion("p", "P", Interval(0, 20)))
        with pytest.raises(InvalidRelationshipError):
            d.add_relationship(TemporalRelationship("a", "p", Interval(0, 10)))

    def test_versions_of_sorted_by_start(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("s2", "Smith", Interval(10)))
        d.add_member(MemberVersion("s1", "Smith", Interval(0, 9)))
        assert [m.mvid for m in d.versions_of("Smith")] == ["s1", "s2"]

    def test_replace_relationship_requires_same_endpoints(self):
        d = build_simple()
        rel = d.relationships[0]
        other = TemporalRelationship("b", "div2", Interval(0, 3))
        with pytest.raises(InvalidRelationshipError):
            d.replace_relationship(rel, other)

    def test_replacement_relationship_must_fit_its_members(self):
        d = build_simple()
        rel = d.relationships[1]  # b -> div over [0, 9]
        with pytest.raises(InvalidRelationshipError):
            d.replace_relationship(rel, TemporalRelationship("b", "div", Interval(-5, 9)))
        assert d.relationships[1] == rel

    def test_replacement_member_must_cover_its_relationships(self):
        d = build_simple()
        with pytest.raises(InvalidRelationshipError):
            d.replace_member(d.member("b").excluded_at(5))  # b -> div2 from 10
        assert d.member("b").valid_time == Interval(0)
        d.remove_relationship(d.relationships[2])
        d.replace_relationship(
            d.relationships[1], TemporalRelationship("b", "div", Interval(0, 4))
        )
        d.replace_member(d.member("b").excluded_at(5))
        assert d.member("b").valid_time == Interval(0, 4)

    def test_empty_dimension_id_rejected(self):
        with pytest.raises(ModelError):
            TemporalDimension("")


class TestCycleDetection:
    def test_inserting_cycle_is_rejected_and_rolled_back(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0)))
        d.add_member(MemberVersion("b", "B", Interval(0)))
        d.add_relationship(TemporalRelationship("a", "b", Interval(0)))
        with pytest.raises(CyclicHierarchyError):
            d.add_relationship(TemporalRelationship("b", "a", Interval(0)))
        # rollback: the offending edge is gone and the dimension validates
        assert len(d.relationships) == 1
        d.validate()

    def test_cycle_in_disjoint_time_slices_is_legal(self):
        """a→b over [0,4] and b→a over [5,9] never coexist: both DAGs."""
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0)))
        d.add_member(MemberVersion("b", "B", Interval(0)))
        d.add_relationship(TemporalRelationship("a", "b", Interval(0, 4)))
        d.add_relationship(TemporalRelationship("b", "a", Interval(5, 9)))
        d.validate()

    def test_validate_detects_cycle_added_unchecked(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0)))
        d.add_member(MemberVersion("b", "B", Interval(0)))
        d.add_relationship(TemporalRelationship("a", "b", Interval(0)))
        d.add_relationship(
            TemporalRelationship("b", "a", Interval(0)), check_acyclic=False
        )
        with pytest.raises(CyclicHierarchyError):
            d.validate()


class TestSnapshots:
    def test_snapshot_membership_follows_valid_time(self):
        d = build_simple()
        snap = d.at(5)
        assert "a" in snap and "b" in snap

    def test_snapshot_edges_follow_valid_time(self):
        d = build_simple()
        assert d.at(5).parents("b") == ["div"]
        assert d.at(10).parents("b") == ["div2"]

    def test_snapshot_excludes_invalid_members(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0, 4)))
        assert "a" not in d.at(5)

    def test_roots_and_leaves(self):
        d = build_simple()
        snap = d.at(0)
        assert snap.roots() == ["div", "div2"]
        assert snap.leaves() == ["a", "b", "div2"]  # div2 childless until t=10

    def test_children(self):
        d = build_simple()
        assert d.at(0).children("div") == ["a", "b"]
        assert d.at(10).children("div") == ["a"]

    def test_descendants_and_ancestors(self):
        d = build_simple()
        snap = d.at(0)
        assert snap.descendants("div") == {"a", "b"}
        assert snap.ancestors("b") == {"div"}

    def test_leaf_descendants_of_leaf_is_itself(self):
        d = build_simple()
        assert d.at(0).leaf_descendants("a") == {"a"}

    def test_unknown_member_in_snapshot_rejected(self):
        d = build_simple()
        with pytest.raises(UnknownMemberVersionError):
            d.at(0).member("ghost")

    def test_topological_order_parents_first(self):
        d = build_simple()
        order = d.at(0).topological_order()
        assert order.index("div") < order.index("a")
        assert order.index("div") < order.index("b")


class TestLevels:
    def test_explicit_levels_win(self):
        d = build_simple()
        levels = d.at(0).levels()
        assert levels == {"Division": ["div", "div2"], "Department": ["a", "b"]}

    def test_depth_levels_when_no_explicit_field(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("root", "Root", Interval(0)))
        d.add_member(MemberVersion("mid", "Mid", Interval(0)))
        d.add_member(MemberVersion("leaf", "Leaf", Interval(0)))
        d.add_relationship(TemporalRelationship("mid", "root", Interval(0)))
        d.add_relationship(TemporalRelationship("leaf", "mid", Interval(0)))
        levels = d.at(0).levels()
        assert levels == {
            "depth-0": ["root"],
            "depth-1": ["mid"],
            "depth-2": ["leaf"],
        }

    def test_mixed_level_fields_fall_back_to_depth(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("root", "Root", Interval(0), level="Top"))
        d.add_member(MemberVersion("leaf", "Leaf", Interval(0)))  # no level
        d.add_relationship(TemporalRelationship("leaf", "root", Interval(0)))
        assert set(d.at(0).levels()) == {"depth-0", "depth-1"}

    def test_depth_uses_longest_path(self):
        """Non-covering: a leaf under both root and mid sits at depth 2."""
        d = TemporalDimension("org")
        for mvid in ("root", "mid", "leaf"):
            d.add_member(MemberVersion(mvid, mvid, Interval(0)))
        d.add_relationship(TemporalRelationship("mid", "root", Interval(0)))
        d.add_relationship(TemporalRelationship("leaf", "mid", Interval(0)))
        d.add_relationship(TemporalRelationship("leaf", "root", Interval(0)))
        assert d.at(0).depth("leaf") == 2

    def test_level_members_unknown_level(self):
        d = build_simple()
        with pytest.raises(ModelError):
            d.at(0).level_members("Continent")


class TestLeafMemberVersions:
    def test_departments_are_leaves(self):
        d = build_simple()
        leaf_ids = {m.mvid for m in d.leaf_member_versions()}
        assert {"a", "b"} <= leaf_ids

    def test_member_with_children_throughout_is_not_leaf(self):
        d = build_simple()
        leaf_ids = {m.mvid for m in d.leaf_member_versions()}
        assert "div" not in leaf_ids

    def test_member_childless_for_a_while_is_leaf(self):
        """div2 has no children before t=10, so it *is* a leaf member
        version per the paper ('no children at, at least, one instant')."""
        d = build_simple()
        leaf_ids = {m.mvid for m in d.leaf_member_versions()}
        assert "div2" in leaf_ids

    def test_is_leaf_at(self):
        d = build_simple()
        assert d.is_leaf_at("div2", 5)
        assert not d.is_leaf_at("div2", 10)
        assert not d.is_leaf_at("div", 0)

    def test_is_leaf_at_outside_validity_false(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0, 4)))
        assert not d.is_leaf_at("a", 9)


class TestRestrict:
    def test_restrict_keeps_only_fully_valid_elements(self):
        d = build_simple()
        r = d.restrict(Interval(0, 9))
        assert set(r.members) == {"div", "div2", "a", "b"}
        # The b->div2 edge starts at 10: not valid throughout [0,9].
        assert all(rel.parent != "div2" for rel in r.relationships)

    def test_restrict_drops_members_created_later(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("old", "Old", Interval(0)))
        d.add_member(MemberVersion("new", "New", Interval(10)))
        r = d.restrict(Interval(0, 5))
        assert set(r.members) == {"old"}

    def test_restrict_result_is_time_invariant_inside_span(self):
        d = build_simple()
        r = d.restrict(Interval(10, 20))
        assert r.at(10).parents("b") == r.at(20).parents("b") == ["div2"]

    @pytest.mark.parametrize("interval", [Interval(0, 9), Interval(10, 20), Interval(0)])
    def test_restrict_equals_a_dimension_built_through_the_checks(self, interval):
        """Copying the kept relationships without re-validating them gives
        the dimension that adding each one through the public checks does."""
        d = build_simple()
        d.add_member(MemberVersion("c", "Dept-C", Interval(3, 14), level="Department"))
        d.add_relationship(TemporalRelationship("c", "div2", Interval(3, 14)))
        expected = TemporalDimension(d.did, d.name)
        for mv in d.members.values():
            if mv.valid_throughout(interval):
                expected.add_member(mv)
        for rel in d.relationships:
            if (rel.valid_throughout(interval) and rel.child in expected
                    and rel.parent in expected):
                expected.add_relationship(rel, check_acyclic=False)
        r = d.restrict(interval)
        assert r.members == expected.members
        assert r.relationships == expected.relationships
        for mvid in r.members:
            assert r.relationships_of(mvid) == expected.relationships_of(mvid)
        assert r.at(interval.start).relationships == expected.at(interval.start).relationships

    def test_invalid_relationship_still_raises_on_add(self):
        d = build_simple()
        r = d.restrict(Interval(0, 9))
        r.add_member(MemberVersion("late", "Late", Interval(5), level="Department"))
        with pytest.raises(InvalidRelationshipError):
            r.add_relationship(TemporalRelationship("late", "div", Interval(0)))
        assert all(rel.child != "late" for rel in r.relationships)


class TestCriticalInstants:
    def test_all_boundaries_present(self):
        d = build_simple()
        assert d.critical_instants() == [0, 10]

    def test_member_end_contributes(self):
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(2, 7)))
        assert d.critical_instants() == [2, 8]
