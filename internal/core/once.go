package core

import (
	"sync"

	"spacesim/internal/mp"
)

// onceMsg is a rank's payload in allgatherOnce: its chunk and, used on rank
// 0's only, the slot for the world's result (payloads travel by reference).
type onceMsg[C, T any] struct {
	chunk C
	once  sync.Once
	v     T
}

// allgatherOnce allgathers chunk at the given accounted wire size and returns
// what build makes of all the chunks, indexed by rank: a value that is the
// same on every rank — the splitter table, the replicated top of the tree.
// The modeled machine computes P replicas at once; one host would compute
// them one after another, so the replicas share storage (DESIGN.md §6). The
// first rank out of the allgather runs build and the rest read its result,
// which nobody may write from then on. build must be a pure function of the
// chunks, so that it cannot matter who ran it.
func allgatherOnce[C, T any](r *mp.Rank, chunk C, bytes int64, build func(chunks []C) T) T {
	gathered := r.AllgatherAny(&onceMsg[C, T]{chunk: chunk}, bytes)
	res := gathered[0].(*onceMsg[C, T])
	res.once.Do(func() {
		chunks := make([]C, len(gathered))
		for i, g := range gathered {
			chunks[i] = g.(*onceMsg[C, T]).chunk
		}
		res.v = build(chunks)
	})
	return res.v
}
