// Package trace defines the micro-operation (uop) record that flows
// through every component of the simulator, and the Source interface
// every uop stream implements.
//
// The simulator is uop-based, mirroring the paper's IA32 uop-level
// methodology: every metric in the paper (mispredicts per 1000 uops,
// reduction in uops executed, …) is denominated in uops, so the trace
// record is the natural unit of work.
package trace

import "fmt"

// Kind classifies a uop by the functional unit class and semantics it
// needs. The simulator's schedulers, latency table and statistics all
// key off Kind.
type Kind uint8

// Uop kinds. Branch kinds are grouped at the end so IsBranch can use a
// range test.
const (
	// Nop does nothing but occupies a slot (used for padding and
	// pipeline bubbles in synthesized wrong-path code).
	Nop Kind = iota
	// ALU is a single-cycle integer operation.
	ALU
	// Mul is a pipelined integer multiply.
	Mul
	// Div is an unpipelined integer divide.
	Div
	// FP is a generic floating-point operation.
	FP
	// FPDiv is a long-latency floating-point divide.
	FPDiv
	// Load reads memory through the data-cache hierarchy.
	Load
	// Store writes memory; retires through the store buffer.
	Store
	// CondBranch is a conditional branch: the only kind that is
	// predicted, confidence-estimated, gated and possibly reversed.
	CondBranch
	// Jump is an unconditional direct jump.
	Jump
	// Call is a direct call (unconditional, pushes a return address).
	Call
	// Ret is a return (indirect, popped from the return stack).
	Ret

	numKinds
)

var kindNames = [numKinds]string{
	Nop: "nop", ALU: "alu", Mul: "mul", Div: "div",
	FP: "fp", FPDiv: "fpdiv", Load: "load", Store: "store",
	CondBranch: "br.cond", Jump: "jmp", Call: "call", Ret: "ret",
}

// String returns the mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsBranch reports whether the kind is any control-flow transfer.
func (k Kind) IsBranch() bool { return k >= CondBranch && k <= Ret }

// IsConditional reports whether the kind is a conditional branch, the
// only kind subject to prediction and confidence estimation.
func (k Kind) IsConditional() bool { return k == CondBranch }

// IsMem reports whether the uop accesses data memory.
func (k Kind) IsMem() bool { return k == Load || k == Store }

// IsFP reports whether the uop executes on the floating-point unit.
func (k Kind) IsFP() bool { return k == FP || k == FPDiv }

// NoReg marks an unused register operand slot in a Uop.
const NoReg uint8 = 0xFF

// NumRegs is the size of the architectural register file the generators
// draw operands from. Register indices are in [0, NumRegs).
const NumRegs = 64

// Uop is one micro-operation. The zero value is a valid Nop.
//
// Register operands use indices in [0, NumRegs) or NoReg when a slot is
// unused. Branch uops carry their resolved direction (Taken) and target;
// memory uops carry their effective address. The record describes what
// the program *does* — prediction, confidence and timing are the
// simulator's business.
type Uop struct {
	// PC is the address of the uop. Static branches keep a stable PC
	// across dynamic instances, which is what prediction tables index.
	PC uint64
	// Target is the branch target address (branches only).
	Target uint64
	// Addr is the effective data address (loads and stores only).
	Addr uint64
	// Dst is the destination register, or NoReg.
	Dst uint8
	// Src1 and Src2 are source registers, or NoReg.
	Src1, Src2 uint8
	// Kind classifies the uop.
	Kind Kind
	// Taken is the resolved direction of a conditional branch; it is
	// true for unconditional transfers.
	Taken bool
}

// IsBranch reports whether the uop is any control transfer.
func (u Uop) IsBranch() bool { return u.Kind.IsBranch() }

// IsConditional reports whether the uop is a conditional branch.
func (u Uop) IsConditional() bool { return u.Kind.IsConditional() }

// String formats the uop for debugging and trace dumps.
func (u Uop) String() string {
	switch {
	case u.Kind.IsConditional():
		dir := "N"
		if u.Taken {
			dir = "T"
		}
		return fmt.Sprintf("%#x: %s %s -> %#x", u.PC, u.Kind, dir, u.Target)
	case u.Kind.IsBranch():
		return fmt.Sprintf("%#x: %s -> %#x", u.PC, u.Kind, u.Target)
	case u.Kind.IsMem():
		return fmt.Sprintf("%#x: %s [%#x] d%d s%d,%d", u.PC, u.Kind, u.Addr, u.Dst, u.Src1, u.Src2)
	default:
		return fmt.Sprintf("%#x: %s d%d s%d,%d", u.PC, u.Kind, u.Dst, u.Src1, u.Src2)
	}
}

// Source produces a stream of uops. Implementations include the
// synthetic workload generators, workload.Replay and SliceSource.
//
// Next returns the next uop; ok is false when the stream is exhausted
// (generators are infinite and always return ok=true).
type Source interface {
	Next() (u Uop, ok bool)
}

// SliceSource replays a fixed slice of uops; useful in tests.
type SliceSource struct {
	uops []Uop
	pos  int
}

// NewSliceSource returns a Source that yields the given uops in order.
func NewSliceSource(uops []Uop) *SliceSource { return &SliceSource{uops: uops} }

// Next implements Source.
func (s *SliceSource) Next() (Uop, bool) {
	if s.pos >= len(s.uops) {
		return Uop{}, false
	}
	u := s.uops[s.pos]
	s.pos++
	return u, true
}

// Reset rewinds the source to the beginning of the slice.
func (s *SliceSource) Reset() { s.pos = 0 }

// Take drains up to n uops from a source into a fresh slice.
func Take(src Source, n int) []Uop {
	out := make([]Uop, 0, n)
	for len(out) < n {
		u, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, u)
	}
	return out
}
