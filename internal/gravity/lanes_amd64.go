package gravity

import "math"

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

// bodyLanesAVX2 adds to the block's accumulators the sums, over the bodies
// of segs[0:nseg] in order, of the four lanes' sinks. It reads a Source as
// x, y, z, m at bytes 0, 8, 16, 24 of a 32-byte row.
//
//go:noescape
func bodyLanesAVX2(blk *lanes, segs *[]Source, nseg int)

// cellLanesAVX2 adds the fields of cells[0:n] in order to the block's
// accumulators. It reads a Multipole as M at byte 0, COM at 8 and Q (xx,
// yy, zz, xy, xz, yz) at 32.
//
//go:noescape
func cellLanesAVX2(blk *lanes, cells **Multipole, n int)

// useAVX2 selects the assembly kernels, once per process, from what the
// CPU and the OS report. Only export_test.go writes it afterwards.
var useAVX2 = detectAVX2()

// detectAVX2 reports AVX2 with OS-saved YMM state: CPUID.1:ECX OSXSAVE and
// AVX, XCR0 bits 1 and 2 (XMM and YMM), CPUID.7:EBX AVX2.
func detectAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// lanes is the operand block of one assembly call: four sinks, one per
// lane, their running sums, and the broadcast constants the cell kernel
// has no registers left for. lanes_amd64.s addresses it by byte offset.
type lanes struct {
	sx, sy, sz, eps2     [4]float64
	one, m25, half, sign [4]float64
	ax, ay, az, pot      [4]float64
}

func newLanes(eps2 float64) lanes {
	signBit := math.Copysign(0, -1)
	return lanes{
		eps2: [4]float64{eps2, eps2, eps2, eps2},
		one:  [4]float64{1, 1, 1, 1},
		m25:  [4]float64{-2.5, -2.5, -2.5, -2.5},
		half: [4]float64{0.5, 0.5, 0.5, 0.5},
		sign: [4]float64{signBit, signBit, signBit, signBit},
	}
}

// load fills the lanes with sinks j..j+3 and their accumulators. A short
// last group repeats the last sink: the padded lanes redo its arithmetic
// on copies of its operands, no instruction crosses lanes, and store never
// writes them back.
func (g *lanes) load(sx, sy, sz, ax, ay, az, pot []float64, j int) {
	for l := 0; l < 4; l++ {
		k := min(j+l, len(sx)-1)
		g.sx[l], g.sy[l], g.sz[l] = sx[k], sy[k], sz[k]
		g.ax[l], g.ay[l], g.az[l], g.pot[l] = ax[k], ay[k], az[k], pot[k]
	}
}

func (g *lanes) store(ax, ay, az, pot []float64, j int) {
	for l := 0; l < 4 && j+l < len(ax); l++ {
		ax[j+l], ay[j+l], az[j+l], pot[j+l] = g.ax[l], g.ay[l], g.az[l], g.pot[l]
	}
}

func bodyKernelAVX2(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	g := newLanes(eps2)
	for j := 0; j < len(sx); j += 4 {
		g.load(sx, sy, sz, ax, ay, az, pot, j)
		bodyLanesAVX2(&g, &segs[0], len(segs))
		g.store(ax, ay, az, pot, j)
	}
}

func cellKernelAVX2(cells []*Multipole, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	g := newLanes(eps2)
	for j := 0; j < len(sx); j += 4 {
		g.load(sx, sy, sz, ax, ay, az, pot, j)
		cellLanesAVX2(&g, &cells[0], len(cells))
		g.store(ax, ay, az, pot, j)
	}
}
