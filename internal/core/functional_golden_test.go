package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bce/internal/confidence"
	"bce/internal/metrics"
	"bce/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/functional_golden_digests.txt")

const functionalGoldenFile = "functional_golden_digests.txt"

// functionalDigest hashes one functional segment's counters, confusion
// matrix and output densities.
func functionalDigest(t *testing.T, cfg FunctionalConfig, segment int) string {
	r, err := runFunctionalSegment(cfg, segment)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	c := r.Confusion
	for _, v := range []uint64{r.Uops, r.Branches, c.CorrectHigh, c.CorrectLow, c.WrongHigh, c.WrongLow} {
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	for _, hist := range []*metrics.Histogram{r.CorrectHist, r.WrongHist} {
		under, over := hist.OutOfRange()
		for _, v := range append([]uint64{under, over}, hist.Bins()...) {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFunctionalGoldenDigests pins the functional path bit for bit:
// every benchmark under three estimators at quick sizes, on two
// runtime segments. A change to the workload stream, the predictor or
// an estimator moves a digest; a pure performance change must leave
// them alone. Regenerate only for a deliberate behaviour change, with:
//
//	go test ./internal/core -run FunctionalGolden -update
func TestFunctionalGoldenDigests(t *testing.T) {
	sz := QuickSizes()
	ests := []struct {
		name string
		make func() confidence.Estimator
	}{
		{"always-high", func() confidence.Estimator { return confidence.AlwaysHigh{} }},
		{"cic0", func() confidence.Estimator { return confidence.NewCIC(0) }},
		{"jrs7", func() confidence.Estimator { return confidence.NewEnhancedJRS(7) }},
	}
	var got []string
	for _, b := range workload.Names() {
		for _, e := range ests {
			for seg := 0; seg < 2; seg++ {
				cfg := FunctionalConfig{
					Bench:         b,
					MakeEstimator: e.make,
					WarmupUops:    sz.FuncWarmup,
					MeasureUops:   sz.FuncMeasure,
					HistRange:     200,
					HistBin:       10,
				}
				got = append(got, fmt.Sprintf("%s/%s/seg%d %s", e.name, b, seg, functionalDigest(t, cfg, seg)))
			}
		}
	}

	path := filepath.Join("testdata", functionalGoldenFile)
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
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
