#include "textflag.h"

// Assembly bodies of the two production kernels, four sinks to a YMM
// register (AVX2 + FMA3) and eight to a ZMM register (AVX-512F). A lane is a
// sink: one register holds the same quantity for every sink of the block,
// every source (or cell) is broadcast — from where its list entry points, a
// row of a body segment or a multipole in a tree cell — and applied to all
// lanes, and no instruction moves data between lanes. The arithmetic is
// subtract, add, multiply, fused multiply-add and two integer operations —
// no square root, no divide — issued for one lane in the order bodyKernelGo
// (batch.go), Multipole.addField (cellkernel.go) and Rsqrt (newton.go) write
// them with math.FMA, so each sink sees the same correctly-rounded IEEE-754
// operations in the same order at either width and in the Go loops. Keep
// them in step: a reordering or a different contraction here is a digest
// change.
//
// The reciprocal square root (RSQRT below) is Rsqrt without its range test:
// the callers enter only with eps2 >= rsqrtMin, and every argument is folded
// into the block's watch with an unsigned 32-bit maximum, whose upper halves
// the caller compares with rsqrtMax afterwards (lanes.store).
//
// Offsets into the lanes block (lanes_amd64.go):
//   sx 0  sy 64  sz 128  ax 192  ay 256  az 320  pot 384  watch 448
//   eps2 512  half 544  c15 576  m25 608  sign 640  magic 672

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// NEWTON(h, y, t, c15) is one step y <- y * (1.5 - (h*y)*y), the inner
// product and difference fused.
#define NEWTON(h, y, t, c15) \
	VMULPD y, h, t \
	VFNMADD213PD c15, y, t \
	VMULPD t, y, y

// RSQRT(x, y, t, magic, half, c15) leaves 1/sqrt(x) in y and 0.5*x in x:
// the seed magic - bits(x)>>1 (magic must be a register), then four steps.
#define RSQRT(x, y, t, magic, half, c15) \
	VPSRLQ $1, x, y \
	VPSUBQ y, magic, y \
	VMULPD half, x, x \
	NEWTON(x, y, t, c15) \
	NEWTON(x, y, t, c15) \
	NEWTON(x, y, t, c15) \
	NEWTON(x, y, t, c15)

// func bodyLanesAVX2(blk *lanes, segs *[]Source, nseg int)
//
// Y0-Y3 partial sums (fx, fy, fz, p) carried across the segments and added
// to the block's accumulators once after the last, Y4-Y6 sinks, Y8 watch,
// Y15 zero, Y7 and Y9-Y14 temporaries; eps2 and the constants are memory
// operands from the block. BX walks the slice headers (24 bytes: pointer, length,
// capacity), AX the 32-byte rows of one segment.
TEXT ·bodyLanesAVX2(SB), NOSPLIT, $0-24
	MOVQ blk+0(FP), DI
	MOVQ segs+8(FP), BX
	MOVQ nseg+16(FP), CX
	VMOVUPD 0(DI), Y4
	VMOVUPD 64(DI), Y5
	VMOVUPD 128(DI), Y6
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y8, Y8, Y8
	VXORPD Y15, Y15, Y15
	TESTQ CX, CX
	JLE  bodysumavx2

bodysegavx2:
	MOVQ 0(BX), AX
	MOVQ 8(BX), SI
	ADDQ $24, BX
	TESTQ SI, SI
	JLE  bodynextavx2

bodyloopavx2:
	VBROADCASTSD 0(AX), Y9
	VSUBPD Y4, Y9, Y9              // dx = x - px
	VBROADCASTSD 8(AX), Y10
	VSUBPD Y5, Y10, Y10            // dy
	VBROADCASTSD 16(AX), Y11
	VSUBPD Y6, Y11, Y11            // dz
	VMULPD Y9, Y9, Y12
	VFMADD231PD Y10, Y10, Y12
	VFMADD231PD Y11, Y11, Y12      // r2 = fma(dz, dz, fma(dy, dy, dx*dx))
	VCMPPD $0, Y15, Y12, Y13     // EQ_OQ: all ones where r2 == 0
	VBROADCASTSD 24(AX), Y14
	VANDNPD Y14, Y13, Y14        // m, or +0 for the self pair
	VADDPD 512(DI), Y12, Y12            // r2 + eps2
	VPMAXUD Y12, Y8, Y8
	VMOVDQU 672(DI), Y7
	RSQRT(Y12, Y13, Y7, Y7, 544(DI), 576(DI))
	VMULPD Y13, Y13, Y12           // rinv*rinv
	VMULPD Y13, Y14, Y7            // m*rinv
	VFNMADD231PD Y13, Y14, Y3      // p = fma(-m, rinv, p)
	VMULPD Y12, Y7, Y7             // mr3 = (m*rinv)*(rinv*rinv)
	VFMADD231PD Y9, Y7, Y0         // fx = fma(mr3, dx, fx)
	VFMADD231PD Y10, Y7, Y1
	VFMADD231PD Y11, Y7, Y2
	ADDQ $32, AX
	DECQ SI
	JNZ  bodyloopavx2

bodynextavx2:
	DECQ CX
	JNZ  bodysegavx2

bodysumavx2:
	VADDPD 192(DI), Y0, Y0         // ax[j] += fx
	VMOVUPD Y0, 192(DI)
	VADDPD 256(DI), Y1, Y1
	VMOVUPD Y1, 256(DI)
	VADDPD 320(DI), Y2, Y2
	VMOVUPD Y2, 320(DI)
	VADDPD 384(DI), Y3, Y3
	VMOVUPD Y3, 384(DI)
	VMOVDQU Y8, 448(DI)
	VZEROUPPER
	RET

// func bodyLanesAVX512(blk *lanes, segs *[]Source, nseg int)
//
// Z0-Z3 partial sums (fx, fy, fz, p) carried across the segments and added
// to the block's accumulators once after the last, Z4-Z6 sinks, Z8 watch,
// Z15 zero, Z16-Z19 eps2, 0.5, 1.5 and the seed constant, Z7 and Z9-Z14
// temporaries. BX walks the slice headers (24 bytes: pointer, length,
// capacity), AX the 32-byte rows of one segment.
TEXT ·bodyLanesAVX512(SB), NOSPLIT, $0-24
	MOVQ blk+0(FP), DI
	MOVQ segs+8(FP), BX
	MOVQ nseg+16(FP), CX
	VMOVUPD 0(DI), Z4
	VMOVUPD 64(DI), Z5
	VMOVUPD 128(DI), Z6
	VBROADCASTSD 512(DI), Z16
	VBROADCASTSD 544(DI), Z17
	VBROADCASTSD 576(DI), Z18
	VPBROADCASTQ 672(DI), Z19
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z8, Z8, Z8
	VPXORQ Z15, Z15, Z15
	TESTQ CX, CX
	JLE  bodysumavx512

bodysegavx512:
	MOVQ 0(BX), AX
	MOVQ 8(BX), SI
	ADDQ $24, BX
	TESTQ SI, SI
	JLE  bodynextavx512

bodyloopavx512:
	VBROADCASTSD 0(AX), Z9
	VSUBPD Z4, Z9, Z9              // dx = x - px
	VBROADCASTSD 8(AX), Z10
	VSUBPD Z5, Z10, Z10            // dy
	VBROADCASTSD 16(AX), Z11
	VSUBPD Z6, Z11, Z11            // dz
	VMULPD Z9, Z9, Z12
	VFMADD231PD Z10, Z10, Z12
	VFMADD231PD Z11, Z11, Z12      // r2 = fma(dz, dz, fma(dy, dy, dx*dx))
	VCMPPD $4, Z15, Z12, K1        // NEQ_UQ: clear where r2 == 0, the self pair
	VBROADCASTSD 24(AX), Z14
	VADDPD Z16, Z12, Z12            // r2 + eps2
	VPMAXUD Z12, Z8, Z8
	RSQRT(Z12, Z13, Z7, Z19, Z17, Z18)
	VMULPD Z13, Z13, Z12           // rinv*rinv
	VMULPD.Z Z13, Z14, K1, Z7      // m*rinv, or +0 for the self pair
	VFNMADD231PD Z13, Z14, K1, Z3  // p = fma(-m, rinv, p), or p
	VMULPD Z12, Z7, Z7             // mr3 = (m*rinv)*(rinv*rinv)
	VFMADD231PD Z9, Z7, Z0         // fx = fma(mr3, dx, fx)
	VFMADD231PD Z10, Z7, Z1
	VFMADD231PD Z11, Z7, Z2
	ADDQ $32, AX
	DECQ SI
	JNZ  bodyloopavx512

bodynextavx512:
	DECQ CX
	JNZ  bodysegavx512

bodysumavx512:
	VADDPD 192(DI), Z0, Z0         // ax[j] += fx
	VMOVUPD Z0, 192(DI)
	VADDPD 256(DI), Z1, Z1
	VMOVUPD Z1, 256(DI)
	VADDPD 320(DI), Z2, Z2
	VMOVUPD Z2, 320(DI)
	VADDPD 384(DI), Z3, Z3
	VMOVUPD Z3, 384(DI)
	VMOVDQU64 Z8, 448(DI)
	VZEROUPPER
	RET

// func cellLanesAVX2(blk *lanes, cells **Multipole, n int)
//
// Y0-Y3 running sums (ax, ay, az, pot) loaded from and stored to the block,
// Y4-Y6 x, y, z, Y8 watch, Y11 rinv5, Y12 rinv7, the rest temporaries;
// sinks, eps2 and the constants are memory operands from the block because
// sixteen registers do not hold them too. AX walks the pointer list, BX is the multipole in hand: M 0, COM
// 8/16/24, Q xx 32, yy 40, zz 48, xy 56, xz 64, yz 72.
TEXT ·cellLanesAVX2(SB), NOSPLIT, $0-24
	MOVQ blk+0(FP), DI
	MOVQ cells+8(FP), AX
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JLE  celldoneavx2
	VMOVUPD 192(DI), Y0
	VMOVUPD 256(DI), Y1
	VMOVUPD 320(DI), Y2
	VMOVUPD 384(DI), Y3
	VXORPD Y8, Y8, Y8

cellloopavx2:
	MOVQ (AX), BX
	ADDQ $8, AX
	VBROADCASTSD 8(BX), Y7
	VMOVUPD 0(DI), Y4
	VSUBPD Y7, Y4, Y4              // x = px - cx
	VBROADCASTSD 16(BX), Y7
	VMOVUPD 64(DI), Y5
	VSUBPD Y7, Y5, Y5              // y
	VBROADCASTSD 24(BX), Y7
	VMOVUPD 128(DI), Y6
	VSUBPD Y7, Y6, Y6              // z
	VMOVUPD 512(DI), Y7
	VFMADD231PD Y4, Y4, Y7
	VFMADD231PD Y5, Y5, Y7
	VFMADD231PD Y6, Y6, Y7             // r2 = fma(z, z, fma(y, y, fma(x, x, eps2)))
	VPMAXUD Y7, Y8, Y8
	VMOVDQU 672(DI), Y10
	RSQRT(Y7, Y9, Y10, Y10, 544(DI), 576(DI))
	VMULPD Y9, Y9, Y7              // rinv2 = rinv*rinv
	VMULPD Y7, Y9, Y10             // rinv3 = rinv*rinv2
	VMULPD Y7, Y10, Y11            // rinv5 = rinv3*rinv2
	VMULPD Y7, Y11, Y12            // rinv7 = rinv5*rinv2
	VBROADCASTSD 0(BX), Y13
	VXORPD 640(DI), Y13, Y13            // -m
	VFMADD231PD Y9, Y13, Y3        // pot = fma(-m, rinv, pot)
	VMULPD Y10, Y13, Y10           // s = -m*rinv3

	VBROADCASTSD 32(BX), Y7
	VMULPD Y4, Y7, Y7
	VBROADCASTSD 56(BX), Y15
	VFMADD231PD Y5, Y15, Y7
	VBROADCASTSD 64(BX), Y15
	VFMADD231PD Y6, Y15, Y7
	// qx = fma(qxz, z, fma(qxy, y, qxx*x))
	VBROADCASTSD 56(BX), Y13
	VMULPD Y4, Y13, Y13
	VBROADCASTSD 40(BX), Y15
	VFMADD231PD Y5, Y15, Y13
	VBROADCASTSD 72(BX), Y15
	VFMADD231PD Y6, Y15, Y13
	// qy = fma(qyz, z, fma(qyy, y, qxy*x))
	VBROADCASTSD 64(BX), Y14
	VMULPD Y4, Y14, Y14
	VBROADCASTSD 72(BX), Y15
	VFMADD231PD Y5, Y15, Y14
	VBROADCASTSD 48(BX), Y15
	VFMADD231PD Y6, Y15, Y14
	// qz = fma(qzz, z, fma(qyz, y, qxz*x))
	VMULPD Y7, Y4, Y9
	VFMADD231PD Y13, Y5, Y9
	VFMADD231PD Y14, Y6, Y9          // xqx = fma(z, qz, fma(y, qy, x*qx))

	VMULPD 608(DI), Y9, Y15              // -2.5*xqx
	VFMADD231PD Y12, Y15, Y10      // su = fma(-2.5*xqx, rinv7, s)
	VFMADD231PD Y4, Y10, Y0
	VFMADD231PD Y7, Y11, Y0        // ax = fma(rinv5, qx, fma(su, x, ax))
	VFMADD231PD Y5, Y10, Y1
	VFMADD231PD Y13, Y11, Y1
	VFMADD231PD Y6, Y10, Y2
	VFMADD231PD Y14, Y11, Y2
	VMULPD 544(DI), Y9, Y9              // 0.5*xqx
	VFNMADD231PD Y11, Y9, Y3       // pot = fma(-(0.5*xqx), rinv5, pot)
	DECQ CX
	JNZ  cellloopavx2

	VMOVUPD Y0, 192(DI)
	VMOVUPD Y1, 256(DI)
	VMOVUPD Y2, 320(DI)
	VMOVUPD Y3, 384(DI)
	VMOVDQU Y8, 448(DI)
	VZEROUPPER
celldoneavx2:
	RET

// func cellLanesAVX512(blk *lanes, cells **Multipole, n int)
//
// Z0-Z3 running sums (ax, ay, az, pot) loaded from and stored to the block,
// Z20-Z22 sinks, Z4-Z6 x, y, z, Z8 watch, Z16-Z19 eps2, 0.5, 1.5 and the
// seed constant, Z23 -2.5, Z24 the sign bit, the rest temporaries; the
// cell's scalars are broadcast inside the instruction that uses them. AX walks the pointer list, BX is the multipole in hand: M 0, COM
// 8/16/24, Q xx 32, yy 40, zz 48, xy 56, xz 64, yz 72.
TEXT ·cellLanesAVX512(SB), NOSPLIT, $0-24
	MOVQ blk+0(FP), DI
	MOVQ cells+8(FP), AX
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JLE  celldoneavx512
	VMOVUPD 192(DI), Z0
	VMOVUPD 256(DI), Z1
	VMOVUPD 320(DI), Z2
	VMOVUPD 384(DI), Z3
	VMOVUPD 0(DI), Z20
	VMOVUPD 64(DI), Z21
	VMOVUPD 128(DI), Z22
	VBROADCASTSD 512(DI), Z16
	VBROADCASTSD 544(DI), Z17
	VBROADCASTSD 576(DI), Z18
	VBROADCASTSD 608(DI), Z23
	VPBROADCASTQ 640(DI), Z24
	VPBROADCASTQ 672(DI), Z19
	VPXORQ Z8, Z8, Z8

cellloopavx512:
	MOVQ (AX), BX
	ADDQ $8, AX
	VSUBPD.BCST 8(BX), Z20, Z4        // x = px - cx
	VSUBPD.BCST 16(BX), Z21, Z5       // y
	VSUBPD.BCST 24(BX), Z22, Z6       // z
	VMOVAPD Z16, Z7
	VFMADD231PD Z4, Z4, Z7
	VFMADD231PD Z5, Z5, Z7
	VFMADD231PD Z6, Z6, Z7             // r2 = fma(z, z, fma(y, y, fma(x, x, eps2)))
	VPMAXUD Z7, Z8, Z8
	RSQRT(Z7, Z9, Z10, Z19, Z17, Z18)
	VMULPD Z9, Z9, Z7              // rinv2 = rinv*rinv
	VMULPD Z7, Z9, Z10             // rinv3 = rinv*rinv2
	VMULPD Z7, Z10, Z11            // rinv5 = rinv3*rinv2
	VMULPD Z7, Z11, Z12            // rinv7 = rinv5*rinv2
	VPBROADCASTQ 0(BX), Z13
	VPXORQ Z24, Z13, Z13            // -m
	VFMADD231PD Z9, Z13, Z3        // pot = fma(-m, rinv, pot)
	VMULPD Z10, Z13, Z10           // s = -m*rinv3

	VMULPD.BCST 32(BX), Z4, Z7
	VFMADD231PD.BCST 56(BX), Z5, Z7
	VFMADD231PD.BCST 64(BX), Z6, Z7
	// qx = fma(qxz, z, fma(qxy, y, qxx*x))
	VMULPD.BCST 56(BX), Z4, Z13
	VFMADD231PD.BCST 40(BX), Z5, Z13
	VFMADD231PD.BCST 72(BX), Z6, Z13
	// qy = fma(qyz, z, fma(qyy, y, qxy*x))
	VMULPD.BCST 64(BX), Z4, Z14
	VFMADD231PD.BCST 72(BX), Z5, Z14
	VFMADD231PD.BCST 48(BX), Z6, Z14
	// qz = fma(qzz, z, fma(qyz, y, qxz*x))
	VMULPD Z7, Z4, Z9
	VFMADD231PD Z13, Z5, Z9
	VFMADD231PD Z14, Z6, Z9          // xqx = fma(z, qz, fma(y, qy, x*qx))

	VMULPD Z23, Z9, Z15              // -2.5*xqx
	VFMADD231PD Z12, Z15, Z10      // su = fma(-2.5*xqx, rinv7, s)
	VFMADD231PD Z4, Z10, Z0
	VFMADD231PD Z7, Z11, Z0        // ax = fma(rinv5, qx, fma(su, x, ax))
	VFMADD231PD Z5, Z10, Z1
	VFMADD231PD Z13, Z11, Z1
	VFMADD231PD Z6, Z10, Z2
	VFMADD231PD Z14, Z11, Z2
	VMULPD Z17, Z9, Z9              // 0.5*xqx
	VFNMADD231PD Z11, Z9, Z3       // pot = fma(-(0.5*xqx), rinv5, pot)
	DECQ CX
	JNZ  cellloopavx512

	VMOVUPD Z0, 192(DI)
	VMOVUPD Z1, 256(DI)
	VMOVUPD Z2, 320(DI)
	VMOVUPD Z3, 384(DI)
	VMOVDQU64 Z8, 448(DI)
	VZEROUPPER
celldoneavx512:
	RET
