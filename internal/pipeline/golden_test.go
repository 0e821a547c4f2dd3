package pipeline

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bce/internal/cache"
	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/telemetry"
	"bce/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_digests.txt")

const goldenFile = "golden_digests.txt"

// goldenCase is one pinned simulation: a fresh Sim over bench, run for
// warm then measure uops. With spans > 1 the measured uops are split
// into that many equal Run calls, and every span's statistics are
// hashed, which pins where one Run ends and the next begins.
type goldenCase struct {
	name          string
	bench         string
	opt           func() Options
	warm, measure uint64
	spans         uint64
}

// goldenCases is the byte-identity matrix: every benchmark under the
// three benchmark workloads' configurations, the oracle and ablation
// modes on a few benchmarks, random machine shapes, and a hierarchy
// with zero-latency hits and very long misses.
func goldenCases(t *testing.T) []goldenCase {
	var cs []goldenCase
	add := func(name, bench string, warm, measure uint64, opt func() Options) {
		cs = append(cs, goldenCase{name: name + "/" + bench, bench: bench, opt: opt, warm: warm, measure: measure})
	}
	for _, b := range workload.Names() {
		add("base", b, 5000, 20000, func() Options { return Options{} })
		add("cic0-pl1", b, 5000, 20000, func() Options {
			return Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1)}
		})
		add("20c8w-cic-75-rev50-pl2", b, 5000, 20000, func() Options {
			return Options{
				Machine:   config.Wide20x8(),
				Estimator: confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50}),
				Gating:    gating.PL(2),
				Reversal:  true,
			}
		})
	}
	for _, b := range []string{"gzip", "mcf", "twolf"} {
		add("perfect", b, 5000, 20000, func() Options { return Options{Perfect: true} })
		add("spec-train", b, 5000, 20000, func() Options {
			return Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1), SpeculativeCETrain: true}
		})
		add("oracle-rev", b, 5000, 20000, func() Options {
			return Options{Estimator: confidence.NewOracle(), Reversal: true}
		})
		add("20c4w", b, 5000, 20000, func() Options { return Options{Machine: config.Mid20x4()} })
		add("lat0-mem5000", b, 2000, 8000, func() Options {
			return Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1), Hierarchy: farHierarchy()}
		})
	}
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 24; trial++ {
		m := randomMachine(t, rng)
		b := workload.Names()[rng.Intn(12)]
		choice := rng.Intn(3)
		lat := rng.Intn(10)
		add(fmt.Sprintf("random%02d", trial), b, 2000, 6000, func() Options {
			opt := Options{Machine: m}
			switch choice {
			case 1:
				opt.Estimator = confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})
				opt.Gating = gating.PL(1 + lat%3)
				opt.Reversal = true
			case 2:
				opt.Estimator = confidence.NewEnhancedJRS(7)
				opt.Gating = gating.Policy{Threshold: 2, Latency: lat}
			}
			return opt
		})
	}
	// Gating with a 9-cycle estimator latency (§5.4.2): fetched
	// low-confidence branches wait as pending arms before they count.
	for _, b := range []string{"gzip", "mcf", "twolf"} {
		add("cic0-pl1-lat9", b, 5000, 20000, func() Options {
			return Options{Estimator: confidence.NewCIC(0), Gating: gating.Policy{Threshold: 1, Latency: 9}}
		})
	}
	// A long memory-bound run: many wheel turns and far-list moves.
	add("base-200k", "mcf", 5000, 200_000, func() Options { return Options{} })
	// One measurement as 40 Run calls of 500 uops.
	cs = append(cs, goldenCase{name: "cic0-pl1-40x500/mcf", bench: "mcf", warm: 5000, measure: 20000, spans: 40,
		opt: func() Options { return Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1)} }})
	return cs
}

// farHierarchy answers L1 hits in zero cycles and sends every L2 miss
// thousands of cycles out, so loads complete both in the very next
// cycle and far beyond any short-latency horizon.
func farHierarchy() *cache.Hierarchy {
	return cache.NewHierarchy(cache.HierarchyConfig{
		Lat: cache.Latencies{L1: 0, L2: 1, Memory: 5000},
	})
}

// digest hashes a case's measured statistics, the data-cache counters
// and the final cycle.
func (c goldenCase) digest(t *testing.T) string {
	s := New(c.opt(), gen(t, c.bench))
	s.Run(c.warm)
	spans := max(c.spans, 1)
	h := sha256.New()
	for range spans {
		r := s.Run(c.measure / spans)
		b, err := r.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	l1h, l1m := s.Hierarchy().L1().Stats()
	l2h, l2m := s.Hierarchy().L2().Stats()
	for _, v := range []uint64{l1h, l1m, l2h, l2m, s.Cycle()} {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashSink hashes every field of every event it receives.
type hashSink struct {
	h   hash.Hash
	n   uint64
	buf []byte
}

func (k *hashSink) Emit(e telemetry.Event) {
	b := k.buf[:0]
	for _, v := range []uint64{e.Cycle, e.Seq, e.PC, e.N, uint64(int64(e.Output))} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, byte(e.Kind), e.Band, boolByte(e.Taken), boolByte(e.Mispred), boolByte(e.WrongPath))
	k.h.Write(b)
	k.buf = b
	k.n++
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// eventStreamDigest hashes the full telemetry stream of the traced
// configuration on gzip.
func eventStreamDigest(t *testing.T) string {
	k := &hashSink{h: sha256.New()}
	s := New(tracedOptions(k), gen(t, "gzip"))
	s.Run(30_000)
	if k.n == 0 {
		t.Fatal("traced run emitted no events")
	}
	fmt.Fprintf(k.h, "events=%d cycle=%d", k.n, s.Cycle())
	return hex.EncodeToString(k.h.Sum(nil))
}

// TestGoldenDigests pins the simulator's outputs bit for bit: any
// change to scheduling order, timing or telemetry moves a digest. The
// digests are a record of behaviour, not of any one implementation, so
// a pure performance change must leave them alone. Regenerate only for
// a deliberate behaviour change, with:
//
//	go test ./internal/pipeline -run Golden -update
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix skipped in -short")
	}
	var got []string
	for _, c := range goldenCases(t) {
		got = append(got, c.name+" "+c.digest(t))
	}
	got = append(got, "events/traced-gzip "+eventStreamDigest(t))

	path := filepath.Join("testdata", goldenFile)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d cases, matrix has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
