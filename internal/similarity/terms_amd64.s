#include "textflag.h"

// func sumTerms(offs []int32, m, acc []float64)
//
// acc[j] = Σ_r m[offs[r]*cols+j] over the offsets that are not negative
// (Missing is -1), with cols = len(acc). Each column's sum starts from +0
// and adds the rows in feature order, one ADDPD or ADDSD lane per column, so
// it rounds exactly as sumTermsGo does. Blocks of 16 columns are held in
// X0–X7 while the offsets are walked once; 2- and 1-column tails follow.
//
// Registers: SI offs, CX end of offs, DI m at the block's first column,
// DX acc at the block's first column, BX columns left, R10 bytes per term
// row (cols*8), R12 offset cursor, AX the term row at offset offs[r].
TEXT ·sumTerms(SB), NOSPLIT, $0-72
	MOVQ offs_base+0(FP), SI
	MOVQ offs_len+8(FP), CX
	MOVQ m_base+24(FP), DI
	MOVQ acc_base+48(FP), DX
	MOVQ acc_len+56(FP), BX
	LEAQ (SI)(CX*4), CX
	MOVQ BX, R10
	SHLQ $3, R10

block16:
	CMPQ BX, $16
	JLT  block2
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	MOVQ SI, R12

loop16:
	CMPQ    R12, CX
	JEQ     done16
	MOVLQSX (R12), AX
	ADDQ    $4, R12
	CMPQ    AX, $0
	JLT     loop16
	IMULQ   R10, AX
	ADDQ    DI, AX
	MOVUPD  0(AX), X8
	ADDPD   X8, X0
	MOVUPD  16(AX), X9
	ADDPD   X9, X1
	MOVUPD  32(AX), X10
	ADDPD   X10, X2
	MOVUPD  48(AX), X11
	ADDPD   X11, X3
	MOVUPD  64(AX), X12
	ADDPD   X12, X4
	MOVUPD  80(AX), X13
	ADDPD   X13, X5
	MOVUPD  96(AX), X14
	ADDPD   X14, X6
	MOVUPD  112(AX), X15
	ADDPD   X15, X7
	JMP     loop16

done16:
	MOVUPD X0, 0(DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X4, 64(DX)
	MOVUPD X5, 80(DX)
	MOVUPD X6, 96(DX)
	MOVUPD X7, 112(DX)
	ADDQ   $128, DI
	ADDQ   $128, DX
	SUBQ   $16, BX
	JMP    block16

block2:
	CMPQ  BX, $2
	JLT   block1
	XORPD X0, X0
	MOVQ  SI, R12

loop2:
	CMPQ    R12, CX
	JEQ     done2
	MOVLQSX (R12), AX
	ADDQ    $4, R12
	CMPQ    AX, $0
	JLT     loop2
	IMULQ   R10, AX
	ADDQ    DI, AX
	MOVUPD  (AX), X8
	ADDPD   X8, X0
	JMP     loop2

done2:
	MOVUPD X0, (DX)
	ADDQ   $16, DI
	ADDQ   $16, DX
	SUBQ   $2, BX
	JMP    block2

block1:
	CMPQ  BX, $1
	JLT   ret
	XORPD X0, X0
	MOVQ  SI, R12

loop1:
	CMPQ    R12, CX
	JEQ     done1
	MOVLQSX (R12), AX
	ADDQ    $4, R12
	CMPQ    AX, $0
	JLT     loop1
	IMULQ   R10, AX
	ADDQ    DI, AX
	ADDSD   (AX), X0
	JMP     loop1

done1:
	MOVSD X0, (DX)

ret:
	RET
