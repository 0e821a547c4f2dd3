package trace

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Nop: "nop", ALU: "alu", Mul: "mul", Div: "div", FP: "fp",
		FPDiv: "fpdiv", Load: "load", Store: "store",
		CondBranch: "br.cond", Jump: "jmp", Call: "call", Ret: "ret",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindPredicates(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		wantBranch := k == CondBranch || k == Jump || k == Call || k == Ret
		if got := k.IsBranch(); got != wantBranch {
			t.Errorf("%v.IsBranch() = %v, want %v", k, got, wantBranch)
		}
		if got := k.IsConditional(); got != (k == CondBranch) {
			t.Errorf("%v.IsConditional() = %v", k, got)
		}
		if got := k.IsMem(); got != (k == Load || k == Store) {
			t.Errorf("%v.IsMem() = %v", k, got)
		}
		if got := k.IsFP(); got != (k == FP || k == FPDiv) {
			t.Errorf("%v.IsFP() = %v", k, got)
		}
	}
}

func TestUopString(t *testing.T) {
	br := Uop{PC: 0x1000, Kind: CondBranch, Taken: true, Target: 0x2000}
	if s := br.String(); !strings.Contains(s, "br.cond") || !strings.Contains(s, "T") {
		t.Errorf("branch string %q missing pieces", s)
	}
	nt := Uop{PC: 0x1000, Kind: CondBranch, Taken: false, Target: 0x2000}
	if s := nt.String(); !strings.Contains(s, " N ") {
		t.Errorf("not-taken branch string %q missing N", s)
	}
	ld := Uop{PC: 0x40, Kind: Load, Addr: 0xbeef, Dst: 3, Src1: 1, Src2: NoReg}
	if s := ld.String(); !strings.Contains(s, "load") || !strings.Contains(s, "0xbeef") {
		t.Errorf("load string %q missing pieces", s)
	}
	jm := Uop{PC: 0x40, Kind: Jump, Target: 0x80, Taken: true}
	if s := jm.String(); !strings.Contains(s, "jmp") {
		t.Errorf("jump string %q", s)
	}
	al := Uop{PC: 0x44, Kind: ALU, Dst: 1, Src1: 2, Src2: 3}
	if s := al.String(); !strings.Contains(s, "alu") {
		t.Errorf("alu string %q", s)
	}
}

func TestSliceSource(t *testing.T) {
	uops := []Uop{
		{PC: 1, Kind: ALU},
		{PC: 2, Kind: Load, Addr: 100},
		{PC: 3, Kind: CondBranch, Taken: true, Target: 10},
	}
	src := NewSliceSource(uops)
	for i, want := range uops {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("Next() exhausted at %d", i)
		}
		if got != want {
			t.Errorf("uop %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := src.Next(); ok {
		t.Error("Next() after end returned ok")
	}
	src.Reset()
	if u, ok := src.Next(); !ok || u.PC != 1 {
		t.Errorf("after Reset, got %+v ok=%v", u, ok)
	}
}

func TestTake(t *testing.T) {
	uops := []Uop{{PC: 1}, {PC: 2}, {PC: 3}}
	src := NewSliceSource(uops)
	got := Take(src, 2)
	if len(got) != 2 || got[0].PC != 1 || got[1].PC != 2 {
		t.Errorf("Take(2) = %v", got)
	}
	got = Take(src, 10)
	if len(got) != 1 || got[0].PC != 3 {
		t.Errorf("Take(10) after partial drain = %v", got)
	}
}
