//go:build !amd64

package gravity

// No assembly kernels off amd64: the Go loops are the only bodies.
var kernelLanes = 0

func bodyKernelLanes(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	panic("gravity: no assembly kernel on this architecture")
}

func cellKernelLanes(cells []*Multipole, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	panic("gravity: no assembly kernel on this architecture")
}
