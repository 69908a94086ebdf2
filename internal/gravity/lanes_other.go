//go:build !amd64

package gravity

// No assembly kernels off amd64: the Go loops are the only bodies.
var useAVX2 = false

func bodyKernelAVX2(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	panic("gravity: no AVX2 kernel on this architecture")
}

func cellKernelAVX2(cells []*Multipole, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	panic("gravity: no AVX2 kernel on this architecture")
}
