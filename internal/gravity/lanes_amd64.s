#include "textflag.h"

// AVX2 bodies of the two float64 production kernels. A lane is a sink: one
// YMM register holds the same quantity for four sinks, every source (or
// cell) is broadcast — from where its list entry points, a row of a body
// segment or a multipole in a tree cell — and applied to all four, and no
// instruction moves data between lanes. Only VSUBPD/VMULPD/VADDPD/VSQRTPD/VDIVPD do arithmetic — no
// FMA — and one lane's operations are issued in the order the Go loops in
// batch.go and cellkernel.go write them, so each sink sees the same
// correctly-rounded IEEE-754 operations in the same order as on the scalar
// SSE2 path. Keep the two in step: a reordering here is a digest change.
//
// Offsets into the lanes block (lanes_amd64.go):
//   sx 0  sy 32  sz 64  eps2 96  one 128  m25 160  half 192  sign 224
//   ax 256  ay 288  az 320  pot 352

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

// func bodyLanesAVX2(blk *lanes, segs *[]Source, nseg int)
//
// Y0-Y3 partial sums (fx, fy, fz, p) carried across the segments and added
// to the block's accumulators once after the last, Y4-Y6 sinks, Y7 eps2,
// Y8 one, Y15 zero, Y9-Y14 temporaries. BX walks the slice headers (24
// bytes: pointer, length, capacity), AX the 32-byte rows of one segment.
TEXT ·bodyLanesAVX2(SB), NOSPLIT, $0-24
	MOVQ blk+0(FP), DI
	MOVQ segs+8(FP), BX
	MOVQ nseg+16(FP), CX
	VMOVUPD 0(DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	VMOVUPD 128(DI), Y8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y15, Y15, Y15
	TESTQ CX, CX
	JLE  bodysum

bodyseg:
	MOVQ 0(BX), AX
	MOVQ 8(BX), SI
	ADDQ $24, BX
	TESTQ SI, SI
	JLE  bodynext

bodyloop:
	VBROADCASTSD 0(AX), Y9
	VSUBPD Y4, Y9, Y9              // dx = x - px
	VBROADCASTSD 8(AX), Y10
	VSUBPD Y5, Y10, Y10            // dy
	VBROADCASTSD 16(AX), Y11
	VSUBPD Y6, Y11, Y11            // dz
	VMULPD Y9, Y9, Y12
	VMULPD Y10, Y10, Y13
	VADDPD Y13, Y12, Y12           // dx*dx + dy*dy
	VMULPD Y11, Y11, Y13
	VADDPD Y13, Y12, Y12           // r2 = (dx*dx + dy*dy) + dz*dz
	VCMPPD $0, Y15, Y12, Y13       // EQ_OQ: all ones where r2 == 0
	VBROADCASTSD 24(AX), Y14
	VANDNPD Y14, Y13, Y14          // m, or +0 for the self pair
	VADDPD Y7, Y12, Y12            // r2 += eps2
	VSQRTPD Y12, Y12
	VDIVPD Y12, Y8, Y12            // rinv = 1 / sqrt(r2)
	VMULPD Y12, Y12, Y13
	VMULPD Y12, Y13, Y13           // rinv3 = (rinv*rinv)*rinv
	VMULPD Y13, Y14, Y13           // mr3 = m*rinv3
	VMULPD Y9, Y13, Y9
	VADDPD Y9, Y0, Y0              // fx += mr3*dx
	VMULPD Y10, Y13, Y10
	VADDPD Y10, Y1, Y1             // fy += mr3*dy
	VMULPD Y11, Y13, Y11
	VADDPD Y11, Y2, Y2             // fz += mr3*dz
	VMULPD Y12, Y14, Y12
	VSUBPD Y12, Y3, Y3             // p -= m*rinv
	ADDQ $32, AX
	DECQ SI
	JNZ  bodyloop

bodynext:
	DECQ CX
	JNZ  bodyseg

bodysum:
	VADDPD 256(DI), Y0, Y0         // ax[j] += fx
	VMOVUPD Y0, 256(DI)
	VADDPD 288(DI), Y1, Y1
	VMOVUPD Y1, 288(DI)
	VADDPD 320(DI), Y2, Y2
	VMOVUPD Y2, 320(DI)
	VADDPD 352(DI), Y3, Y3
	VMOVUPD Y3, 352(DI)
	VZEROUPPER
	RET

// func cellLanesAVX2(blk *lanes, cells **Multipole, n int)
//
// Y0-Y3 running sums (ax, ay, az, pot) loaded from and stored to the block,
// Y4-Y6 x, y, z, Y8 p, Y10 rinv5, Y11 rinv7, Y12-Y14 a, b, c, Y7/Y9/Y15
// temporaries; sinks, eps2 and the constants are memory operands from the
// block because sixteen registers do not hold them too. AX walks the
// pointer list, BX is the multipole in hand: M 0, COM 8/16/24, Q xx 32,
// yy 40, zz 48, xy 56, xz 64, yz 72.
TEXT ·cellLanesAVX2(SB), NOSPLIT, $0-24
	MOVQ blk+0(FP), DI
	MOVQ cells+8(FP), AX
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JLE  celldone
	VMOVUPD 256(DI), Y0
	VMOVUPD 288(DI), Y1
	VMOVUPD 320(DI), Y2
	VMOVUPD 352(DI), Y3

cellloop:
	MOVQ (AX), BX
	ADDQ $8, AX
	VBROADCASTSD 8(BX), Y7
	VMOVUPD 0(DI), Y4
	VSUBPD Y7, Y4, Y4              // x = px - cx
	VBROADCASTSD 16(BX), Y7
	VMOVUPD 32(DI), Y5
	VSUBPD Y7, Y5, Y5              // y
	VBROADCASTSD 24(BX), Y7
	VMOVUPD 64(DI), Y6
	VSUBPD Y7, Y6, Y6              // z
	VMULPD Y4, Y4, Y7
	VMULPD Y5, Y5, Y9
	VADDPD Y9, Y7, Y7              // x*x + y*y
	VMULPD Y6, Y6, Y9
	VADDPD Y9, Y7, Y7              // + z*z
	VADDPD 96(DI), Y7, Y7          // r2 = ((x*x + y*y) + z*z) + eps2
	VSQRTPD Y7, Y7
	VMOVUPD 128(DI), Y9
	VDIVPD Y7, Y9, Y7              // rinv = 1 / sqrt(r2)
	VMULPD Y7, Y7, Y9              // rinv2 = rinv*rinv
	VMULPD Y9, Y7, Y15             // rinv3 = rinv*rinv2
	VMULPD Y9, Y15, Y10            // rinv5 = rinv3*rinv2
	VMULPD Y9, Y10, Y11            // rinv7 = rinv5*rinv2
	VBROADCASTSD 0(BX), Y9
	VXORPD 224(DI), Y9, Y9         // -m
	VMULPD Y15, Y9, Y15            // s = -m*rinv3
	VMULPD Y7, Y9, Y8              // p = -m*rinv
	VMULPD Y4, Y15, Y12            // a = s*x
	VMULPD Y5, Y15, Y13            // b = s*y
	VMULPD Y6, Y15, Y14            // c = s*z

	VBROADCASTSD 32(BX), Y7
	VMULPD Y4, Y7, Y7
	VBROADCASTSD 56(BX), Y9
	VMULPD Y5, Y9, Y9
	VADDPD Y9, Y7, Y7
	VBROADCASTSD 64(BX), Y9
	VMULPD Y6, Y9, Y9
	VADDPD Y9, Y7, Y7              // qx = (qxx*x + qxy*y) + qxz*z
	VMULPD Y7, Y10, Y9
	VADDPD Y9, Y12, Y12            // a += rinv5*qx
	VMULPD Y7, Y4, Y7              // x*qx, the first term of xqx

	VBROADCASTSD 56(BX), Y9
	VMULPD Y4, Y9, Y9
	VBROADCASTSD 40(BX), Y15
	VMULPD Y5, Y15, Y15
	VADDPD Y15, Y9, Y9
	VBROADCASTSD 72(BX), Y15
	VMULPD Y6, Y15, Y15
	VADDPD Y15, Y9, Y9             // qy = (qxy*x + qyy*y) + qyz*z
	VMULPD Y9, Y10, Y15
	VADDPD Y15, Y13, Y13           // b += rinv5*qy
	VMULPD Y9, Y5, Y9
	VADDPD Y9, Y7, Y7              // x*qx + y*qy

	VBROADCASTSD 64(BX), Y9
	VMULPD Y4, Y9, Y9
	VBROADCASTSD 72(BX), Y15
	VMULPD Y5, Y15, Y15
	VADDPD Y15, Y9, Y9
	VBROADCASTSD 48(BX), Y15
	VMULPD Y6, Y15, Y15
	VADDPD Y15, Y9, Y9             // qz = (qxz*x + qyz*y) + qzz*z
	VMULPD Y9, Y10, Y15
	VADDPD Y15, Y14, Y14           // c += rinv5*qz
	VMULPD Y9, Y6, Y9
	VADDPD Y9, Y7, Y7              // xqx = (x*qx + y*qy) + z*qz

	VMULPD 160(DI), Y7, Y9
	VMULPD Y11, Y9, Y9             // u = (-2.5*xqx)*rinv7
	VMULPD Y4, Y9, Y15
	VADDPD Y15, Y12, Y12           // a += u*x
	VMULPD Y5, Y9, Y15
	VADDPD Y15, Y13, Y13           // b += u*y
	VMULPD Y6, Y9, Y15
	VADDPD Y15, Y14, Y14           // c += u*z
	VMULPD 192(DI), Y7, Y7
	VMULPD Y10, Y7, Y7
	VSUBPD Y7, Y8, Y8              // p -= (0.5*xqx)*rinv5
	VADDPD Y12, Y0, Y0             // ax[j] += a
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y8, Y3, Y3              // pot[j] += p
	DECQ CX
	JNZ  cellloop

	VMOVUPD Y0, 256(DI)
	VMOVUPD Y1, 288(DI)
	VMOVUPD Y2, 320(DI)
	VMOVUPD Y3, 352(DI)
	VZEROUPPER
celldone:
	RET
