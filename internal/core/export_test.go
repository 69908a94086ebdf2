package core

import (
	"testing"

	"spacesim/internal/htree"
)

// leafGroups makes the rest of the test start one walker per leaf, the
// grouping before sink groups (pins recorded then still hold under it). It
// writes a package variable, so a test that uses it must not run in
// parallel with others.
func leafGroups(t testing.TB) {
	sinkGroups = (*htree.Tree).Leaves
	t.Cleanup(func() { sinkGroups = (*htree.Tree).Groups })
}
