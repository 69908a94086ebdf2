// Package par is the host's one parallel loop. The grouped walk and every
// SPH pass spread their work over goroutines through For, and every pool
// that sizes itself by the host takes its default from Width. Each caller writes only what index i owns (or what
// worker w owns), so what it computes does not depend on the width.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Width is the number of goroutines For runs over n indices when asked for
// workers: GOMAXPROCS when workers < 1, at most n and at least 1.
func Width(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// For calls fn once for every i in [0, n), the indices claimed in ascending
// order by Width(workers, n) goroutines, and returns when every call has. w
// is the index of the goroutine that claimed i, below Width(workers, n), so
// fn can keep per-worker state. At width 1 fn runs on the caller's goroutine
// and none starts. The goroutines inherit the caller's profiler labels.
func For(n, workers int, fn func(w, i int)) {
	width := Width(workers, n)
	if width == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
