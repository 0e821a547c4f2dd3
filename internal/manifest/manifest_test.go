package manifest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bce/internal/metrics"
	"bce/internal/runner"
)

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder("bcetest", []string{"-exp", "table2"})
	b.SetSizes(Sizes{Warmup: 10, Measure: 20, FuncWarmup: 30, FuncMeasure: 40, Segments: 2})
	b.SetSeeds(map[string]int64{"gzip": 1, "vpr": 2})
	b.Note("quick", "true")
	b.AddJob(Job{Key: "k2", Kind: "timing", Bench: "vpr", Run: &metrics.Run{Cycles: 7}})
	b.AddJob(Job{Key: "k1", Kind: "timing", Bench: "gzip", Cached: true, Run: &metrics.Run{Cycles: 5}})
	b.AddJob(Job{Key: "k1", Kind: "timing", Bench: "gzip"}) // repeat: counts as a hit
	if err := b.AddResult("table2", map[string]float64{"avg": 3.5}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := b.WriteFile(path, 3, 4); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	if m.Schema != SchemaVersion || m.Tool != "bcetest" {
		t.Errorf("header = %d/%q", m.Schema, m.Tool)
	}
	if m.GitRevision == "" || m.GoVersion == "" || m.Start == "" {
		t.Errorf("missing environment stamp: %+v", m)
	}
	if len(m.Jobs) != 2 || m.Jobs[0].Key != "k1" || m.Jobs[1].Key != "k2" {
		t.Fatalf("jobs not deduped+sorted: %+v", m.Jobs)
	}
	if m.Jobs[0].Hits != 1 || m.Jobs[1].Hits != 0 {
		t.Errorf("hits = %d, %d; want 1, 0", m.Jobs[0].Hits, m.Jobs[1].Hits)
	}
	if m.Jobs[0].Run == nil || m.Jobs[0].Run.Cycles != 5 {
		t.Errorf("job run lost: %+v", m.Jobs[0].Run)
	}
	if m.Cache == nil || m.Cache.Hits != 3 || m.Cache.Misses != 4 {
		t.Errorf("cache = %+v", m.Cache)
	}
	if m.ConfigFingerprint == "" || len(m.ConfigFingerprint) != 16 {
		t.Errorf("fingerprint = %q", m.ConfigFingerprint)
	}
	var table2 map[string]float64
	ok, err := m.Result("table2", &table2)
	if err != nil || !ok || table2["avg"] != 3.5 {
		t.Errorf("result table2 = %v %v %v", table2, ok, err)
	}
	if ok, _ := m.Result("absent", &table2); ok {
		t.Error("absent result reported present")
	}
}

// TestFingerprintTracksConfig checks equal configurations fingerprint
// equally and any config change moves the fingerprint.
func TestFingerprintTracksConfig(t *testing.T) {
	base := func(args ...string) *Builder {
		b := NewBuilder("tool", args)
		b.SetSizes(Sizes{Warmup: 1})
		b.SetSeeds(map[string]int64{"x": 1})
		b.SetConfig("exp", "table2")
		return b
	}
	f1 := base("-a").Finish(0, 0).ConfigFingerprint
	f2 := base("-a").Finish(0, 0).ConfigFingerprint
	if f1 != f2 {
		t.Errorf("identical configs fingerprint differently: %q vs %q", f1, f2)
	}
	// Args carry operational noise (output paths, -workers); they must
	// NOT move the fingerprint.
	if f := base("-manifest", "other.json").Finish(0, 0).ConfigFingerprint; f != f1 {
		t.Error("args changed the fingerprint (output paths are not configuration)")
	}
	b := base("-a")
	b.SetSizes(Sizes{Warmup: 2})
	if f3 := b.Finish(0, 0).ConfigFingerprint; f3 == f1 {
		t.Error("changed sizes did not change fingerprint")
	}
	b = base("-a")
	b.SetConfig("exp", "table3")
	if f4 := b.Finish(0, 0).ConfigFingerprint; f4 == f1 {
		t.Error("changed config did not change fingerprint")
	}
}

// TestFingerprintGolden pins the fingerprint algorithm itself. The
// hashes below are part of the manifest contract: bcereport compares
// fingerprints across runs from different builds, so an accidental
// change to the hash inputs or encoding would silently mark every
// historical manifest as "different configuration". If this test fails
// because the algorithm changed on purpose, bump the manifest
// SchemaVersion and regenerate the goldens.
func TestFingerprintGolden(t *testing.T) {
	cfg := map[string]string{"experiment": "table4", "bench": "all", "predictor": "bimodal-gshare"}
	sz := &Sizes{Warmup: 10000, Measure: 30000, FuncWarmup: 20000, FuncMeasure: 60000, Segments: 2}
	seeds := map[string]int64{"gzip": 42, "gcc": 43, "vortex": 44}

	if got, want := fingerprint("bcetables", cfg, sz, seeds), "ad928e4acb7e3e3a"; got != want {
		t.Errorf("fingerprint = %q, want golden %q", got, want)
	}
	if got, want := fingerprint("bcetables", nil, nil, nil), "c3c06b1cc94dae67"; got != want {
		t.Errorf("nil-field fingerprint = %q, want golden %q", got, want)
	}

	// Map insertion order must not matter (Go's JSON encoder sorts
	// keys; this pins that the implementation keeps relying on an
	// order-canonicalizing encoding).
	reordered := map[string]string{"predictor": "bimodal-gshare", "bench": "all", "experiment": "table4"}
	reseeds := map[string]int64{"vortex": 44, "gcc": 43, "gzip": 42}
	if got := fingerprint("bcetables", reordered, sz, reseeds); got != "ad928e4acb7e3e3a" {
		t.Errorf("field reordering moved the fingerprint: %q", got)
	}

	// Every identity field must feed the hash.
	if fingerprint("bcereport", cfg, sz, seeds) == "ad928e4acb7e3e3a" {
		t.Error("tool does not feed the fingerprint")
	}
	cfg2 := map[string]string{"experiment": "table4", "bench": "all", "predictor": "gshare-perceptron"}
	if fingerprint("bcetables", cfg2, sz, seeds) == "ad928e4acb7e3e3a" {
		t.Error("config does not feed the fingerprint")
	}
	sz2 := *sz
	sz2.Segments = 1
	if fingerprint("bcetables", cfg, &sz2, seeds) == "ad928e4acb7e3e3a" {
		t.Error("sizes do not feed the fingerprint")
	}
	seeds2 := map[string]int64{"gzip": 42, "gcc": 43, "vortex": 45}
	if fingerprint("bcetables", cfg, sz, seeds2) == "ad928e4acb7e3e3a" {
		t.Error("seeds do not feed the fingerprint")
	}
}

// TestFingerprintIgnoresOperationalFields: job-level provenance (the
// executing worker, cache flags) and invocation args describe how a
// sweep ran, not what it measured — two runs differing only there must
// fingerprint identically.
func TestFingerprintIgnoresOperationalFields(t *testing.T) {
	build := func(args []string, worker string) string {
		b := NewBuilder("tool", args)
		b.SetSizes(Sizes{Warmup: 100, Measure: 200})
		b.SetConfig("exp", "table4")
		b.AddJob(Job{Key: "k", Kind: "timing", Bench: "gzip", Worker: worker})
		return b.Finish(0, 0).ConfigFingerprint
	}
	local := build([]string{"-quick"}, "")
	remote := build([]string{"-quick", "-workers-remote", "http://a:1,http://b:2"}, "worker-1")
	if local != remote {
		t.Errorf("distributed execution moved the fingerprint: %q vs %q", local, remote)
	}
}

func TestBuilderConcurrentAddJob(t *testing.T) {
	b := NewBuilder("tool", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.AddJob(Job{Key: strings.Repeat("k", i%10+1), Kind: "timing"})
			}
		}(g)
	}
	wg.Wait()
	m := b.Finish(0, 0)
	if len(m.Jobs) != 10 {
		t.Fatalf("got %d unique jobs, want 10", len(m.Jobs))
	}
	hits := 0
	for _, j := range m.Jobs {
		hits += j.Hits
	}
	if hits != 8*100-10 {
		t.Errorf("total hits = %d, want %d", hits, 8*100-10)
	}
}

func TestValidateRejectsBadManifests(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
		want string
	}{
		{"future schema", Manifest{Schema: SchemaVersion + 1, Tool: "t"}, "schema"},
		{"zero schema", Manifest{Tool: "t"}, "schema"},
		{"no tool", Manifest{Schema: 1}, "tool"},
		{"empty key", Manifest{Schema: 1, Tool: "t", Jobs: []Job{{Kind: "timing"}}}, "empty key"},
		{"dup key", Manifest{Schema: 1, Tool: "t", Jobs: []Job{
			{Key: "k", Kind: "timing"}, {Key: "k", Kind: "timing"}}}, "duplicate"},
		{"no kind", Manifest{Schema: 1, Tool: "t", Jobs: []Job{{Key: "k"}}}, "kind"},
	}
	for _, tc := range cases {
		err := tc.m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	ok := Manifest{Schema: 1, Tool: "t", Jobs: []Job{{Key: "k", Kind: "timing"}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

// TestManifestJSONDeterministic checks two manifests built from the
// same inputs marshal identically once volatile fields are cleared —
// the property the fidelity scorecard's byte-stability rests on.
func TestManifestJSONDeterministic(t *testing.T) {
	build := func() []byte {
		b := NewBuilder("tool", []string{"-exp", "all"})
		b.SetSeeds(map[string]int64{"gzip": 3, "mcf": 9, "vpr": 5})
		b.AddJob(Job{Key: "b", Kind: "timing", Bench: "mcf"})
		b.AddJob(Job{Key: "a", Kind: "timing", Bench: "gzip"})
		if err := b.AddResult("t", map[string]int{"z": 1, "a": 2}); err != nil {
			t.Fatal(err)
		}
		m := b.Finish(1, 2)
		m.Start, m.WallSeconds, m.CPUSeconds = "", 0, 0
		m.Runner = nil
		buf, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, bb := build(), build()
	if string(a) != string(bb) {
		t.Errorf("manifest JSON not deterministic:\n%s\n%s", a, bb)
	}
}

// TestManifestWithProfilesLoads pins manifests written before the
// profile store was removed: their "profiles" array (CPU and heap
// profile digests) must not stop Load, and every other field must
// decode intact. The literal is a trimmed bcetables -manifest file
// from a run with profiling on.
func TestManifestWithProfilesLoads(t *testing.T) {
	const old = `{"schema":1,"tool":"bcetables","args":["-exp","table2","-quick","-manifest","t2.json"],` +
		`"git_revision":"e44e280c43e79b029d5cc6b1f943c7b6f49939ed","go_version":"go1.24.0","os":"linux","arch":"amd64",` +
		`"start":"2026-10-20T17:04:40Z","wall_seconds":0.52,"cpu_seconds":0.69,"config_fingerprint":"0123456789abcdef",` +
		`"config":{"bench":"gcc","exp":"table2"},` +
		`"sizes":{"warmup":10000,"measure":30000,"func_warmup":20000,"func_measure":60000,"segments":1},` +
		`"seeds":{"gzip":101,"vpr":202},` +
		`"results":{"table2":{"Rows":[{"Bench":"gzip","MispPer1K":6.6}]}},` +
		`"jobs":[{"key":"timing|gzip","kind":"timing","bench":"gzip","run":{"Cycles":71121,"Retired":30001,"Mispredicts":51}},` +
		`{"key":"functional|vpr","kind":"functional","bench":"vpr","cached":true,"hits":2,"confusion":{"CorrectHigh":9,"WrongLow":4}}],` +
		`"runner":{"jobs_started":72,"jobs_done":72,"jobs_failed":0,"jobs_cached":0,"jobs_retried":0,"store_quarantined":0,"busy_workers":0,"workers":2,"sweep_done":72,"sweep_total":72},` +
		`"cache":{"hits":0,"misses":72},` +
		`"profiles":[{"kind":"cpu","digest":"sha256:e6b99669f35508077a75c7a464c8c7fde002180a7df82011728da508f50cdfcb","bytes":415,"duration_seconds":0.51},` +
		`{"kind":"heap","digest":"sha256:f0c05c2662c3fd30ef7640f773d21897569f2ef9c2a3b56d954b6d706076ebab","bytes":1626,"duration_seconds":0.51}],` +
		`"notes":{"quick":"true"}}`
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("manifest with profiles rejected: %v", err)
	}
	want := &Manifest{
		Schema: 1, Tool: "bcetables",
		Args:        []string{"-exp", "table2", "-quick", "-manifest", "t2.json"},
		GitRevision: "e44e280c43e79b029d5cc6b1f943c7b6f49939ed", GoVersion: "go1.24.0", OS: "linux", Arch: "amd64",
		Start: "2026-10-20T17:04:40Z", WallSeconds: 0.52, CPUSeconds: 0.69, ConfigFingerprint: "0123456789abcdef",
		Config:  map[string]string{"bench": "gcc", "exp": "table2"},
		Sizes:   &Sizes{Warmup: 10000, Measure: 30000, FuncWarmup: 20000, FuncMeasure: 60000, Segments: 1},
		Seeds:   map[string]int64{"gzip": 101, "vpr": 202},
		Results: map[string]json.RawMessage{"table2": json.RawMessage(`{"Rows":[{"Bench":"gzip","MispPer1K":6.6}]}`)},
		Jobs: []Job{
			{Key: "timing|gzip", Kind: "timing", Bench: "gzip", Run: &metrics.Run{Cycles: 71121, Retired: 30001, Mispredicts: 51}},
			{Key: "functional|vpr", Kind: "functional", Bench: "vpr", Cached: true, Hits: 2,
				Confusion: &metrics.Confusion{CorrectHigh: 9, WrongLow: 4}},
		},
		Runner: &runner.LiveStats{JobsStarted: 72, JobsDone: 72, Workers: 2, SweepDone: 72, SweepTotal: 72},
		Cache:  &CacheStats{Hits: 0, Misses: 72},
		Notes:  map[string]string{"quick": "true"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("manifest with profiles mangled:\n got %+v\nwant %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}
