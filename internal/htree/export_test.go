package htree

import "testing"

// LeafGroups makes every tree built for the rest of the test take its leaves
// as its sink groups, the grouping before sink groups (pins recorded then
// still hold under it). It writes a package variable, so a test that uses it
// must not run in parallel with others.
func LeafGroups(t testing.TB) {
	old := groupMax
	groupMax = 0 // no cell is that small, so each leaf is its own group
	t.Cleanup(func() { groupMax = old })
}
