//go:build amd64

#include "textflag.h"

// kernel_amd64.s holds the SSE2 kernels for one perceptron row. SSE2 is
// architectural on amd64, so there is nothing to select at run time:
// the Go wrappers in kernel_amd64.go are a single call the compiler
// inlines into every caller, and the hot path from Table.Output to
// vector code is one CALL deep.
//
// The ±1 input vector for eight history bits is one 16-byte row of
// ·signTable indexed by a history byte. A dot-product block is then a
// single PMADDWD: eight exact int16×(±1) products pairwise-summed into
// int32 lanes, no overflow at any supported weight width (64 weights ×
// 2^14 < 2^31). A training block adds the ±1 delta row — ·signTable[1],
// at byte offset 4096, holds the negated rows for t = -1 — and clamps
// with PMAXSW/PMINSW against the bounds in ·satVecs.
//
// The scalar tail (history length mod 8) uses the same sign-mask
// identity as kernel.go: m = bit-1, contribution = (w ^ m) - m.
// kernel_test.go holds both kernels to exact agreement with the branchy
// reference in reference.go.

// func dotKernel(w *Weight, n int, hist uint64) int32
//
// w points at the bias; n counts the weights including it (hlen+1).
TEXT ·dotKernel(SB), NOSPLIT, $0-28
	MOVQ    w+0(FP), SI
	MOVQ    n+8(FP), BX
	MOVQ    hist+16(FP), CX
	MOVWLSX (SI), R11 // y = bias
	ADDQ    $2, SI
	DECQ    BX        // BX = hlen

	// Blocks two at a time, independent accumulators.
	LEAQ ·signTable(SB), DI
	MOVQ BX, R12
	SHRQ $3, R12
	JZ   dottail
	PXOR X0, X0
	PXOR X7, X7
	SUBQ $2, R12
	JLT  dotsingle

dotloop:
	MOVWLZX CX, AX // next two history bytes
	MOVL    AX, R8
	ANDL    $255, AX
	SHRL    $8, R8
	SHLL    $4, AX // 16 bytes per sign-table row
	SHLL    $4, R8
	MOVOU   (DI)(AX*1), X1
	MOVOU   (SI), X2
	PMADDWL X1, X2
	PADDL   X2, X0
	MOVOU   (DI)(R8*1), X5
	MOVOU   16(SI), X6
	PMADDWL X5, X6
	PADDL   X6, X7
	ADDQ    $32, SI
	SHRQ    $16, CX
	SUBQ    $2, R12
	JGE     dotloop

dotsingle:
	ADDQ $2, R12
	JZ   dotsum

	// Odd leftover block.
	MOVBLZX CX, AX
	SHLL    $4, AX
	MOVOU   (DI)(AX*1), X1
	MOVOU   (SI), X2
	PMADDWL X1, X2
	PADDL   X2, X0
	ADDQ    $16, SI
	SHRQ    $8, CX

dotsum:
	// Horizontal sum: after two shuffle+add rounds every lane holds
	// the total.
	PADDL  X7, X0
	PSHUFL $0x4E, X0, X1
	PADDL  X1, X0
	PSHUFL $0xB1, X0, X1
	PADDL  X1, X0
	MOVQ   X0, AX
	ADDL   AX, R11

dottail:
	// The sub-8-weight tail.
	ANDQ $7, BX
	JZ   dotdone

dottailloop:
	// Sign-mask identity: m = bit-1; (w ^ m) - m = ±w.
	MOVWLSX (SI), AX
	MOVL    CX, DX
	ANDL    $1, DX
	DECL    DX
	XORL    DX, AX
	SUBL    DX, AX
	ADDL    AX, R11
	ADDQ    $2, SI
	SHRQ    $1, CX
	DECQ    BX
	JNZ     dottailloop

dotdone:
	MOVL R11, ret+24(FP)
	RET

// func trainKernel(w *Weight, n int, hist uint64, t, bounds int64)
//
// One full training step toward target t (±1), saturating every
// weight at [min, max]. The ±1 delta table is selected by the sign of
// t; the SIMD clamp bounds come from ·satVecs, indexed in-line by the
// weight width recovered from max (BSR of max+1, i.e. bits.Len16).
TEXT ·trainKernel(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), BX
	MOVQ hist+16(FP), CX
	MOVQ t+24(FP), R9

	// Validate the target here rather than in the Go wrappers: two
	// predicted-never compares cost nothing, while a Go-side check
	// pushes the wrappers past the inlining budget.
	CMPQ R9, $1
	JE   tvalid
	CMPQ R9, $-1
	JNE  tbadtarget

tvalid:
	// Unpack bounds: min sign-extended in the low word, max above it.
	MOVQ    bounds+32(FP), R11
	MOVWQSX R11, R10
	SARQ    $16, R11

	// Bias: w[0] += t, clamped.
	MOVWLSX (SI), AX
	ADDL    R9, AX
	CMPL    AX, R11
	CMOVLGT R11, AX
	CMPL    AX, R10
	CMOVLLT R10, AX
	MOVW    AX, (SI)
	ADDQ    $2, SI
	DECQ    BX // BX = hlen

	MOVQ BX, R12
	SHRQ $3, R12
	JZ   traintail

	// Delta table: ·signTable[0] for t = +1, its negation at byte
	// offset 4096 for t = -1.
	LEAQ    ·signTable(SB), DI
	LEAQ    4096(DI), DX
	TESTQ   R9, R9
	CMOVQLT DX, DI

	// Clamp bounds: ·satVecs[bits.Len16(max+1)], 32 bytes per entry,
	// lanes 0-7 the minimum and 8-15 the maximum.
	LEAL 1(R11), AX
	BSRL AX, AX
	INCL AX
	SHLL $5, AX
	LEAQ ·satVecs(SB), DX
	ADDQ AX, DX
	MOVOU (DX), X3
	MOVOU 16(DX), X4

trainloop:
	MOVBLZX CX, AX
	SHLL    $4, AX
	MOVOU   (DI)(AX*1), X1
	MOVOU   (SI), X2
	PADDW   X1, X2
	PMAXSW  X3, X2
	PMINSW  X4, X2
	MOVOU   X2, (SI)
	ADDQ    $16, SI
	SHRQ    $8, CX
	DECQ    R12
	JNZ     trainloop

traintail:
	// The sub-8-weight tail.
	ANDQ $7, BX
	JZ   traindone

traintailloop:
	// d = (t ^ m) - m with m = bit-1, then clamp.
	MOVL    CX, DX
	ANDL    $1, DX
	DECL    DX
	MOVL    R9, AX
	XORL    DX, AX
	SUBL    DX, AX
	MOVWLSX (SI), DX
	ADDL    DX, AX
	CMPL    AX, R11
	CMOVLGT R11, AX
	CMPL    AX, R10
	CMOVLLT R10, AX
	MOVW    AX, (SI)
	ADDQ    $2, SI
	SHRQ    $1, CX
	DECQ    BX
	JNZ     traintailloop

traindone:
	RET

tbadtarget:
	CALL ·trainBadTarget(SB) // panics; never returns
	RET
