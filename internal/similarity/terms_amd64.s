#include "textflag.h"

// func sumTerms(row []int, stride int, m, acc []float64)
//
// acc[j] = Σ_r m[(r*stride+row[r])*cols+j] over the features r whose value is
// not Missing (-1), with cols = len(acc). Each column's sum starts from +0
// and adds the rows in feature order, one ADDPD or ADDSD lane per column, so
// it rounds exactly as sumTermsGo does. Blocks of 16 columns are held in
// X0–X7 while the row is walked once; 2- and 1-column tails follow.
//
// Registers: SI row, CX end of row, DI m at the block's first column,
// DX acc at the block's first column, BX columns left, R10 bytes per term
// row (cols*8), R11 bytes per feature (stride*cols*8), R12 row cursor,
// R13 feature r's first term row at the block's first column, AX the term
// row of value row[r].
TEXT ·sumTerms(SB), NOSPLIT, $0-80
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	MOVQ stride+24(FP), R11
	MOVQ m_base+32(FP), DI
	MOVQ acc_base+56(FP), DX
	MOVQ acc_len+64(FP), BX
	LEAQ (SI)(CX*8), CX
	MOVQ BX, R10
	SHLQ $3, R10
	IMULQ R10, R11

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
	MOVQ DI, R13

loop16:
	CMPQ R12, CX
	JEQ  done16
	MOVQ (R12), AX
	CMPQ AX, $-1
	JEQ  next16
	IMULQ R10, AX
	ADDQ R13, AX
	MOVUPD 0(AX), X8
	ADDPD  X8, X0
	MOVUPD 16(AX), X9
	ADDPD  X9, X1
	MOVUPD 32(AX), X10
	ADDPD  X10, X2
	MOVUPD 48(AX), X11
	ADDPD  X11, X3
	MOVUPD 64(AX), X12
	ADDPD  X12, X4
	MOVUPD 80(AX), X13
	ADDPD  X13, X5
	MOVUPD 96(AX), X14
	ADDPD  X14, X6
	MOVUPD 112(AX), X15
	ADDPD  X15, X7

next16:
	ADDQ $8, R12
	ADDQ R11, R13
	JMP  loop16

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
	MOVQ  DI, R13

loop2:
	CMPQ R12, CX
	JEQ  done2
	MOVQ (R12), AX
	CMPQ AX, $-1
	JEQ  next2
	IMULQ R10, AX
	ADDQ R13, AX
	MOVUPD (AX), X8
	ADDPD  X8, X0

next2:
	ADDQ $8, R12
	ADDQ R11, R13
	JMP  loop2

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
	MOVQ  DI, R13

loop1:
	CMPQ R12, CX
	JEQ  done1
	MOVQ (R12), AX
	CMPQ AX, $-1
	JEQ  next1
	IMULQ R10, AX
	ADDQ R13, AX
	ADDSD (AX), X0

next1:
	ADDQ $8, R12
	ADDQ R11, R13
	JMP  loop1

done1:
	MOVSD X0, (DX)

ret:
	RET
