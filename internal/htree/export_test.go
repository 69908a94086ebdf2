package htree

import "testing"

// LeafGroups makes every tree built for the rest of the test take its leaves
// as its sink groups and every walk list a leaf's bodies untested: the walk
// before sink groups, under which the pins recorded then still hold. It
// writes package state, so a test that uses it must not run in parallel with
// others.
func LeafGroups(t testing.TB) {
	t.Cleanup(Grouping(0, true))
}
