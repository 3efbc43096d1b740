#include "textflag.h"

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// func accelAVX(xs, ys, zs, ms *float64, n int, xi, yi, zi, eps2 float64) (ax, ay, az, pot float64)
//
// The softened branch of accelGo, four sources per iteration. Every lane
// performs accelGo's operations in accelGo's order, each rounded once
// (VMULPD then VADDPD, never a fused multiply-add), so lane j of a block
// holds bit for bit the term the Go loop computes for that source. Only
// the order in which terms are summed differs: lane k accumulates sources
// k, k+4, k+8, … and the lanes are added as (0+2) + (1+3) at the end.
// pot takes the first product of f, ms[j]*inv, in the same lane order.
// n must be a positive multiple of 4. AVX only.
TEXT ·accelAVX(SB), NOSPLIT, $0-104
	MOVQ         xs+0(FP), AX
	MOVQ         ys+8(FP), BX
	MOVQ         zs+16(FP), CX
	MOVQ         ms+24(FP), DX
	MOVQ         n+32(FP), SI
	VBROADCASTSD xi+40(FP), Y12
	VBROADCASTSD yi+48(FP), Y13
	VBROADCASTSD zi+56(FP), Y14
	VBROADCASTSD eps2+64(FP), Y15
	VBROADCASTSD one<>(SB), Y11
	VXORPD       Y8, Y8, Y8             // ax lanes
	VXORPD       Y9, Y9, Y9             // ay lanes
	VXORPD       Y10, Y10, Y10          // az lanes
	VXORPD       Y7, Y7, Y7             // pot lanes
	XORQ         DI, DI

loop:
	VMOVUPD (AX)(DI*8), Y0
	VMOVUPD (BX)(DI*8), Y1
	VMOVUPD (CX)(DI*8), Y2
	VSUBPD  Y12, Y0, Y0                 // dx = xs[j] - xi
	VSUBPD  Y13, Y1, Y1                 // dy = ys[j] - yi
	VSUBPD  Y14, Y2, Y2                 // dz = zs[j] - zi
	VMULPD  Y0, Y0, Y3
	VMULPD  Y1, Y1, Y4
	VMULPD  Y2, Y2, Y5
	VADDPD  Y4, Y3, Y3                  // dx*dx + dy*dy
	VADDPD  Y5, Y3, Y3                  // … + dz*dz
	VADDPD  Y15, Y3, Y3                 // r2 = … + eps2
	VSQRTPD Y3, Y3
	VDIVPD  Y3, Y11, Y3                 // inv = 1 / sqrt(r2)
	VMOVUPD (DX)(DI*8), Y4
	VMULPD  Y3, Y4, Y4                  // ms[j] * inv
	VADDPD  Y4, Y7, Y7                  // pot += ms[j] * inv
	VMULPD  Y3, Y4, Y4
	VMULPD  Y3, Y4, Y4                  // f = ms[j] * inv * inv * inv
	VMULPD  Y0, Y4, Y0
	VMULPD  Y1, Y4, Y1
	VMULPD  Y2, Y4, Y2
	VADDPD  Y0, Y8, Y8                  // ax += f * dx
	VADDPD  Y1, Y9, Y9                  // ay += f * dy
	VADDPD  Y2, Y10, Y10                // az += f * dz
	ADDQ    $4, DI
	CMPQ    DI, SI
	JLT     loop

	VEXTRACTF128 $1, Y8, X0
	VEXTRACTF128 $1, Y9, X1
	VEXTRACTF128 $1, Y10, X2
	VEXTRACTF128 $1, Y7, X6
	VADDPD       X0, X8, X0             // (lane0+lane2, lane1+lane3)
	VADDPD       X1, X9, X1
	VADDPD       X2, X10, X2
	VADDPD       X6, X7, X6
	VUNPCKHPD    X0, X0, X3
	VUNPCKHPD    X1, X1, X4
	VUNPCKHPD    X2, X2, X5
	VUNPCKHPD    X6, X6, X7
	VADDSD       X3, X0, X0
	VADDSD       X4, X1, X1
	VADDSD       X5, X2, X2
	VADDSD       X7, X6, X6
	VMOVSD       X0, ax+72(FP)
	VMOVSD       X1, ay+80(FP)
	VMOVSD       X2, az+88(FP)
	VMOVSD       X6, pot+96(FP)
	VZEROUPPER
	RET

// func cpuid1ecx() uint32
TEXT ·cpuid1ecx(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
