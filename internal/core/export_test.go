package core

import (
	"testing"

	"spacesim/internal/htree"
)

// leafGroups makes the rest of the test start one walker per leaf and list a
// local leaf's bodies untested, the walk before sink groups (pins recorded
// then still hold under it). It writes htree's package state, so a test that
// uses it must not run in parallel with others.
func leafGroups(t testing.TB) {
	t.Cleanup(htree.Grouping(0, true))
}
