package gravity

import "testing"

// detectedLanes is what the CPU offers, whatever a test makes of kernelLanes.
var detectedLanes = kernelLanes

// EachISA runs f as one subtest per kernel body — "go", "avx2", "avx512" —
// with the dispatchers sent to that body (on "avx512": eight-lane blocks
// with four-lane tails), skipping those the CPU lacks. It writes a package
// variable, so a test that uses it must not run in parallel with others.
func EachISA(t *testing.T, f func(t *testing.T)) {
	defer func() { kernelLanes = detectedLanes }()
	for _, lanes := range []int{0, 4, 8} {
		kernelLanes = lanes
		t.Run(KernelISA(), func(t *testing.T) {
			if lanes > detectedLanes {
				t.Skipf("this CPU runs %d-lane kernels at most", detectedLanes)
			}
			f(t)
		})
	}
}
