package gravity

import "math"

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

// bodyLanesAVX2 adds to the block's accumulators the sums, over the bodies
// of segs[0:nseg] in order, of the first four lanes' sinks. It reads a
// Source as x, y, z, m at bytes 0, 8, 16, 24 of a 32-byte row.
//
//go:noescape
func bodyLanesAVX2(blk *lanes, segs *[]Source, nseg int)

// bodyLanesAVX512 is bodyLanesAVX2 for all eight lanes.
//
//go:noescape
func bodyLanesAVX512(blk *lanes, segs *[]Source, nseg int)

// cellLanesAVX2 adds the fields of cells[0:n] in order to the accumulators
// of the block's first four lanes. It reads a Multipole as M at byte 0, COM
// at 8 and Q (xx, yy, zz, xy, xz, yz) at 32.
//
//go:noescape
func cellLanesAVX2(blk *lanes, cells **Multipole, n int)

// cellLanesAVX512 is cellLanesAVX2 for all eight lanes.
//
//go:noescape
func cellLanesAVX512(blk *lanes, cells **Multipole, n int)

// kernelLanes is the widest block the assembly kernels take — 8 (AVX-512),
// 4 (AVX2) or 0 (none: the Go loops) — chosen once per process from what
// the CPU and the OS report. Only export_test.go writes it afterwards.
var kernelLanes = detectLanes()

// detectLanes reports 4 for AVX2 and FMA3 with OS-saved YMM state —
// CPUID.1:ECX FMA, OSXSAVE and AVX, XCR0 bits 1 and 2 (XMM and YMM),
// CPUID.7:EBX AVX2 — and 8 when CPUID.7:EBX also has AVX512F and XCR0 bits
// 5 to 7 say the OS saves the opmask and ZMM state.
func detectLanes() int {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return 0
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return 0
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	switch {
	case xcr0&6 != 6 || ebx&avx2 == 0:
		return 0
	case xcr0&0xe6 == 0xe6 && ebx&avx512f != 0:
		return 8
	}
	return 4
}

// lanes is the operand block of one assembly call: up to eight sinks, one
// per lane, their running sums, the range watch, and the broadcast
// constants the AVX2 cell kernel has no registers left for.
// lanes_amd64.s addresses it by byte offset.
type lanes struct {
	sx, sy, sz      [8]float64
	ax, ay, az, pot [8]float64
	// watch is what a call leaves of the lanewise maximum, as unsigned
	// 32-bit halves, of the bit patterns it handed to the reciprocal square
	// root; the upper half of a lane orders non-negative doubles and puts
	// NaNs and negatives above all of them.
	watch                      [8]uint64
	eps2, half, c15, m25, sign [4]float64
	magic                      [4]uint64
}

func newLanes(eps2 float64) lanes {
	signBit := math.Copysign(0, -1)
	return lanes{
		eps2:  [4]float64{eps2, eps2, eps2, eps2},
		half:  [4]float64{0.5, 0.5, 0.5, 0.5},
		c15:   [4]float64{1.5, 1.5, 1.5, 1.5},
		m25:   [4]float64{-2.5, -2.5, -2.5, -2.5},
		sign:  [4]float64{signBit, signBit, signBit, signBit},
		magic: [4]uint64{rsqrtMagic, rsqrtMagic, rsqrtMagic, rsqrtMagic},
	}
}

// load fills the lanes with sinks j.. and their accumulators and returns the block's width: eight while more than four sinks
// remain and the CPU has the eight-lane bodies, four otherwise. A short
// last group repeats the last sink: the padded lanes redo its arithmetic on
// copies of its operands, no instruction crosses lanes, and store never
// writes them back.
func (g *lanes) load(sx, sy, sz, ax, ay, az, pot []float64, j int) (width int) {
	width = 4
	if kernelLanes == 8 && len(sx)-j > 4 {
		width = 8
	}
	for l := 0; l < width; l++ {
		k := min(j+l, len(sx)-1)
		g.sx[l], g.sy[l], g.sz[l] = sx[k], sy[k], sz[k]
		g.ax[l], g.ay[l], g.az[l], g.pot[l] = ax[k], ay[k], az[k], pot[k]
	}
	return width
}

// store writes the lanes' sums back to sinks j..j+width-1, unless the watch
// saw an argument at or above rsqrtMax (or a NaN): then the block's sums
// mean nothing, nothing is written, and store reports false.
func (g *lanes) store(ax, ay, az, pot []float64, j, width int) bool {
	for l := 0; l < width; l++ {
		if g.watch[l]>>32 >= watchLimit {
			return false
		}
	}
	for l := 0; l < width && j+l < len(ax); l++ {
		ax[j+l], ay[j+l], az[j+l], pot[j+l] = g.ax[l], g.ay[l], g.az[l], g.pot[l]
	}
	return true
}

// watchLimit is the upper half of rsqrtMax's bit pattern: a watch below it
// saw only arguments below rsqrtMax.
const watchLimit = 0x7e700000

func bodyKernelLanes(segs [][]Source, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	g := newLanes(eps2)
	for j, w := 0, 0; j < len(sx); j += w {
		if w = g.load(sx, sy, sz, ax, ay, az, pot, j); w == 8 {
			bodyLanesAVX512(&g, &segs[0], len(segs))
		} else {
			bodyLanesAVX2(&g, &segs[0], len(segs))
		}
		if !g.store(ax, ay, az, pot, j, w) {
			hi := min(j+w, len(sx))
			bodyKernelGo(segs, sx[j:hi], sy[j:hi], sz[j:hi], eps2, ax[j:hi], ay[j:hi], az[j:hi], pot[j:hi])
		}
	}
}

func cellKernelLanes(cells []*Multipole, sx, sy, sz []float64, eps2 float64, ax, ay, az, pot []float64) {
	g := newLanes(eps2)
	for j, w := 0, 0; j < len(sx); j += w {
		if w = g.load(sx, sy, sz, ax, ay, az, pot, j); w == 8 {
			cellLanesAVX512(&g, &cells[0], len(cells))
		} else {
			cellLanesAVX2(&g, &cells[0], len(cells))
		}
		if !g.store(ax, ay, az, pot, j, w) {
			hi := min(j+w, len(sx))
			cellKernelGo(cells, sx[j:hi], sy[j:hi], sz[j:hi], eps2, ax[j:hi], ay[j:hi], az[j:hi], pot[j:hi])
		}
	}
}
