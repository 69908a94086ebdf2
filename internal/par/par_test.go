package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// For visits every index once, from workers below Width; a loop over no
// indices calls nothing, and a loop one wide runs on the caller: its plain
// counter would be a data race under -race if calls ran on two goroutines.
func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 3, 16} {
			t.Run(fmt.Sprintf("n%d/workers%d", n, workers), func(t *testing.T) {
				width := Width(workers, n)
				if width < 1 || width > max(n, 1) {
					t.Fatalf("Width(%d, %d) = %d", workers, n, width)
				}
				visits := make([]atomic.Int32, n)
				var calls atomic.Int64
				plain, next := 0, 0
				For(n, workers, func(w, i int) {
					if w < 0 || w >= width {
						t.Errorf("index %d claimed by worker %d of %d", i, w, width)
					}
					visits[i].Add(1)
					calls.Add(1)
					if width == 1 {
						if i != next {
							t.Errorf("one-wide loop called index %d, want %d", i, next)
						}
						plain++
						next++
					}
				})
				if got := calls.Load(); got != int64(n) {
					t.Fatalf("%d calls over %d indices", got, n)
				}
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Fatalf("index %d visited %d times", i, v)
					}
				}
				if width == 1 && plain != n {
					t.Fatalf("one-wide loop counted %d of %d calls", plain, n)
				}
			})
		}
	}
}
