package prof

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

// burnCPU gives the sampling profiler something attributable; the
// result defeats dead-code elimination.
func burnCPU(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.000000001 + float64(i%7)
	}
	return x
}

var burnSink float64

func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		burnSink = burnCPU(1 << 16)
	}
	pprof.StopCPUProfile()

	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse(real cpu profile): %v", err)
	}
	var hasCPU bool
	for _, st := range p.SampleTypes {
		if st.Type == "cpu" && st.Unit == "nanoseconds" {
			hasCPU = true
		}
	}
	if !hasCPU {
		t.Errorf("sample types %+v missing cpu/nanoseconds", p.SampleTypes)
	}
	if u := p.SampleTypes[p.sampleIndex()].Unit; u != "nanoseconds" {
		t.Errorf("attributed unit = %q, want nanoseconds (the cpu column)", u)
	}
	// 300ms of spinning at 100Hz yields samples on any but a absurdly
	// overloaded machine; verify the stacks symbolized.
	if len(p.Samples) == 0 {
		t.Skip("no samples collected (machine too loaded?); symbol check skipped")
	}
	for _, s := range p.Samples {
		if len(s.Values) != len(p.SampleTypes) {
			t.Fatalf("sample has %d values for %d sample types", len(s.Values), len(p.SampleTypes))
		}
	}
	// Stacks are leaf first: burnCPU (inlined or not) sits below its
	// caller, and its time is flat time of its own.
	const burn, caller = "bce/internal/prof.burnCPU", "bce/internal/prof.TestParseRealCPUProfile"
	ordered := false
	for _, s := range p.Samples {
		for i, f := range s.Stack {
			if f.Function == burn {
				for _, g := range s.Stack[i+1:] {
					if g.Function == caller {
						ordered = true
					}
				}
			}
		}
	}
	if !ordered {
		t.Errorf("no sample stack has %s below %s", burn, caller)
	}
	agg := Aggregate(p)
	if agg[burn].Flat <= 0 || agg[burn].Cum > p.Total() || agg[caller].Cum < agg[burn].Cum {
		t.Errorf("Aggregate: %s %+v, %s %+v, total %d", burn, agg[burn], caller, agg[caller], p.Total())
	}
}

// wire builds protobuf bytes field by field, for fixtures the Go
// runtime never emits (inlined frames in one location, unsymbolized
// addresses, an explicit default_sample_type).
type wire []byte

func (w wire) varint(v uint64) wire {
	for v >= 0x80 {
		w = append(w, byte(v)|0x80)
		v >>= 7
	}
	return append(w, byte(v))
}

func (w wire) num(field int, v uint64) wire {
	return w.varint(uint64(field)<<3 | wireVarint).varint(v)
}

func (w wire) msg(field int, b []byte) wire {
	return append(w.varint(uint64(field)<<3|wireLen).varint(uint64(len(b))), b...)
}

func (w wire) packed(field int, vs ...uint64) wire {
	var b wire
	for _, v := range vs {
		b = b.varint(v)
	}
	return w.msg(field, b)
}

// TestEncodeParseRoundTrip encodes every profile.proto field the model
// keeps and checks Parse resolves it, raw and gzipped alike.
func TestEncodeParseRoundTrip(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"bce/internal/perceptron.dotKernel", "bce/internal/core.(*Simulator).Step", "runtime.mallocgc"}
	var raw wire
	for _, s := range strs {
		raw = raw.msg(6, []byte(s))
	}
	raw = raw.msg(1, wire{}.num(1, 1).num(2, 2)).
		msg(1, wire{}.num(1, 3).num(2, 4)).
		num(14, 3)
	for id, name := range []uint64{5, 6, 7} {
		raw = raw.msg(5, wire{}.num(1, uint64(id+1)).num(2, name))
	}
	// Location 1 inlines dotKernel (deepest first) into Step; location
	// 2 is mallocgc; location 3 is an unsymbolized address.
	raw = raw.msg(4, wire{}.num(1, 1).msg(4, wire{}.num(1, 1)).msg(4, wire{}.num(1, 2))).
		msg(4, wire{}.num(1, 2).msg(4, wire{}.num(1, 3))).
		msg(4, wire{}.num(1, 3).num(3, 0x4010a0)).
		msg(2, wire{}.packed(1, 1).packed(2, 3, 30_000_000)).
		msg(2, wire{}.packed(1, 2, 3).packed(2, 1, 10_000_000))
	// A third sample carries its location id and values unpacked.
	raw = raw.msg(2, wire{}.num(1, 3).num(2, 2).num(2, 20_000_000))

	want := &Profile{
		SampleTypes:       []ValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}},
		DefaultSampleType: "cpu",
		Samples: []Sample{
			{Stack: []Frame{{Function: strs[5]}, {Function: strs[6]}}, Values: []int64{3, 30_000_000}},
			{Stack: []Frame{{Function: strs[7]}, {Function: "0x4010a0"}}, Values: []int64{1, 10_000_000}},
			{Stack: []Frame{{Function: "0x4010a0"}}, Values: []int64{2, 20_000_000}},
		},
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw) //nolint:errcheck
	zw.Close()
	for name, data := range map[string][]byte{"raw": raw, "gzipped": gz.Bytes()} {
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("Parse(%s): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%s) = %+v, want %+v", name, got, want)
		}
		if u := got.SampleTypes[got.sampleIndex()].Unit; got.Total() != 60_000_000 || u != "nanoseconds" {
			t.Errorf("Parse(%s): Total = %d %s, want 60000000 nanoseconds", name, got.Total(), u)
		}
	}
}

func TestParseRealHeapProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatalf("heap WriteTo: %v", err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse(real heap profile): %v", err)
	}
	var hasInuse bool
	for _, st := range p.SampleTypes {
		if st.Type == "inuse_space" && st.Unit == "bytes" {
			hasInuse = true
		}
	}
	if !hasInuse {
		t.Errorf("sample types %+v missing inuse_space/bytes", p.SampleTypes)
	}
	if u := p.SampleTypes[p.sampleIndex()].Unit; u != "bytes" {
		t.Errorf("attributed unit = %q, want bytes (heap default column)", u)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":           nil,
		"garbage":         []byte("not a profile at all"),
		"truncated gzip":  {0x1f, 0x8b, 0x08, 0x00, 0x01},
		"bad wire type":   {0x0f, 0x01},
		"truncated field": {0x0a, 0x7f, 0x01},
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("Parse(%s) succeeded, want error", name)
		}
	}
	// Valid gzip wrapping garbage must also fail cleanly.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(bytes.Repeat([]byte{0xff}, 64)) //nolint:errcheck
	zw.Close()
	if _, err := Parse(buf.Bytes()); err == nil {
		t.Error("Parse(gzipped garbage) succeeded, want error")
	}
}

func TestIsGzipped(t *testing.T) {
	if IsGzipped([]byte{0x0a, 0x00}) {
		t.Error("raw protobuf misdetected as gzip")
	}
	if !IsGzipped([]byte{0x1f, 0x8b, 0x08}) {
		t.Error("gzip magic not detected")
	}
}
