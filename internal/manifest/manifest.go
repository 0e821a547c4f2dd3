// Package manifest gives every sweep a canonical, machine-readable
// provenance record. A run manifest captures what was run (tool, args,
// experiment sizes, workload seeds), where (git revision, Go version,
// OS/arch), how long (wall and CPU time), and what came out (per-job
// simulation results, structured experiment results, runner live
// stats, cache hit rates) — the experiment-level analogue of the
// per-simulation telemetry layer. cmd/bcereport ingests manifests to
// render the paper-fidelity scorecard and to diff two runs for metric
// drift.
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"bce/internal/metrics"
	"bce/internal/runner"
)

// SchemaVersion is the manifest schema this package writes. Loaders
// reject manifests from a newer schema rather than misreading them.
const SchemaVersion = 1

// Manifest is one sweep's provenance record. Field order is the
// canonical JSON order.
type Manifest struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`
	// Args is the command line after the binary name.
	Args []string `json:"args,omitempty"`
	// GitRevision is the source revision the binary was built from
	// ("unknown" outside a git checkout without build info).
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	// Start is the sweep start time (RFC3339, UTC).
	Start string `json:"start"`
	// WallSeconds and CPUSeconds measure the whole invocation; CPU time
	// exceeding wall time indicates parallel speedup.
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	// ConfigFingerprint hashes tool, config, sizes and seeds: two
	// manifests with equal fingerprints measured the same
	// configuration, so their metric deltas are pure drift. Args are
	// deliberately excluded — they carry output paths and operational
	// flags (-workers, -progress) that do not change what is measured.
	ConfigFingerprint string `json:"config_fingerprint"`
	// Config holds the measurement-relevant settings the tool chose to
	// expose (experiment selection, benchmark, thresholds): the
	// fingerprint's input alongside Sizes and Seeds.
	Config map[string]string `json:"config,omitempty"`
	// Sizes records the experiment run lengths (timing sweeps).
	Sizes *Sizes `json:"sizes,omitempty"`
	// Seeds maps each workload to its deterministic base seed.
	Seeds map[string]int64 `json:"seeds,omitempty"`
	// Results holds structured experiment results keyed by experiment
	// name ("table2", "fig8", ...), marshaled by the producing tool.
	Results map[string]json.RawMessage `json:"results,omitempty"`
	// Jobs lists every simulation the sweep executed, sorted by key.
	Jobs []Job `json:"jobs,omitempty"`
	// Runner snapshots the process-wide execution counters at the end
	// of the run (job outcomes, quarantines, cached jobs).
	Runner *runner.LiveStats `json:"runner,omitempty"`
	// Cache is the timing-result cache tally for the invocation.
	Cache *CacheStats `json:"cache,omitempty"`
	// Notes carries small tool-specific annotations.
	Notes map[string]string `json:"notes,omitempty"`
}

// Sizes mirrors the experiment run lengths (core.Sizes) without
// importing the experiment engine.
type Sizes struct {
	Warmup      uint64 `json:"warmup"`
	Measure     uint64 `json:"measure"`
	FuncWarmup  uint64 `json:"func_warmup"`
	FuncMeasure uint64 `json:"func_measure"`
	Segments    int    `json:"segments"`
}

// CacheStats is the result-cache tally.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Job is one simulation's record: its canonical configuration key and
// its result. Exactly one of Run, Confusion or Extra is populated,
// according to the producing tool.
type Job struct {
	// Key canonicalizes the job's full configuration (the timing-cache
	// key for timing jobs).
	Key string `json:"key"`
	// Kind is "timing", "functional", or a tool-specific kind.
	Kind string `json:"kind"`
	// Bench is the benchmark (or input file) the job ran.
	Bench string `json:"bench,omitempty"`
	// Cached reports the result came from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Worker names the remote worker that executed the job, for
	// distributed sweeps (empty for in-process execution). Operational
	// provenance only: it never feeds the config fingerprint, and
	// result comparisons ignore it.
	Worker string `json:"worker,omitempty"`
	// Hits counts how many additional times the sweep requested this
	// key after the recorded execution (cache reuse within the run).
	Hits int `json:"hits,omitempty"`
	// Run is the timing-simulation result.
	Run *metrics.Run `json:"run,omitempty"`
	// Confusion is the functional-run confusion matrix.
	Confusion *metrics.Confusion `json:"confusion,omitempty"`
	// Extra holds scalar results for tool-specific job kinds.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Builder accumulates a manifest during a sweep. It is safe for
// concurrent use: sweep workers record jobs from many goroutines.
type Builder struct {
	mu    sync.Mutex
	m     Manifest
	start time.Time
	seen  map[string]int // job key -> index in m.Jobs
}

// NewBuilder starts a manifest for one tool invocation, stamping the
// environment (git revision, Go version, OS/arch) and the start time.
func NewBuilder(tool string, args []string) *Builder {
	return &Builder{
		m: Manifest{
			Schema:      SchemaVersion,
			Tool:        tool,
			Args:        args,
			GitRevision: GitRevision(),
			GoVersion:   runtime.Version(),
			OS:          runtime.GOOS,
			Arch:        runtime.GOARCH,
			Start:       time.Now().UTC().Format(time.RFC3339),
		},
		start: time.Now(),
		seen:  make(map[string]int),
	}
}

// SetSizes records the experiment run lengths.
func (b *Builder) SetSizes(s Sizes) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.Sizes = &s
}

// SetSeeds records the per-workload base seeds.
func (b *Builder) SetSeeds(seeds map[string]int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.Seeds = seeds
}

// SetConfig records one measurement-relevant setting; it feeds the
// config fingerprint (unlike Args and Notes).
func (b *Builder) SetConfig(key, value string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m.Config == nil {
		b.m.Config = make(map[string]string)
	}
	b.m.Config[key] = value
}

// Note attaches one tool-specific annotation.
func (b *Builder) Note(key, value string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m.Notes == nil {
		b.m.Notes = make(map[string]string)
	}
	b.m.Notes[key] = value
}

// AddJob records one completed simulation. A key seen before does not
// duplicate the job; it increments the recorded job's Hits tally (the
// sweep asked for the same configuration again and the cache served
// it). Safe for concurrent use.
func (b *Builder) AddJob(j Job) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i, ok := b.seen[j.Key]; ok {
		b.m.Jobs[i].Hits++
		return
	}
	b.seen[j.Key] = len(b.m.Jobs)
	b.m.Jobs = append(b.m.Jobs, j)
}

// AddResult stores one experiment's structured result under its name,
// marshaled to JSON. Later results under the same name replace earlier
// ones.
func (b *Builder) AddResult(name string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("manifest: result %q: %w", name, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m.Results == nil {
		b.m.Results = make(map[string]json.RawMessage)
	}
	b.m.Results[name] = buf
	return nil
}

// Finish stamps timings, runner stats, the cache tally and the config
// fingerprint, sorts jobs by key for a deterministic layout, and
// returns the completed manifest. Call it once, after the sweep.
func (b *Builder) Finish(cacheHits, cacheMisses uint64) *Manifest {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.WallSeconds = time.Since(b.start).Seconds()
	b.m.CPUSeconds = processCPUSeconds()
	ls := runner.LiveSnapshot()
	b.m.Runner = &ls
	if cacheHits != 0 || cacheMisses != 0 {
		b.m.Cache = &CacheStats{Hits: cacheHits, Misses: cacheMisses}
	}
	sort.Slice(b.m.Jobs, func(i, j int) bool { return b.m.Jobs[i].Key < b.m.Jobs[j].Key })
	b.seen = nil // further AddJob calls would corrupt the sorted order
	b.m.ConfigFingerprint = fingerprint(b.m.Tool, b.m.Config, b.m.Sizes, b.m.Seeds)
	return &b.m
}

// WriteFile finishes the manifest and writes it as indented JSON.
func (b *Builder) WriteFile(path string, cacheHits, cacheMisses uint64) error {
	m := b.Finish(cacheHits, cacheMisses)
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// fingerprint hashes the configuration identity fields; 16 hex chars
// is plenty to compare two manifests' configurations. Go's JSON
// encoder sorts map keys, so the hash is insertion-order independent.
func fingerprint(tool string, config map[string]string, sizes *Sizes, seeds map[string]int64) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(tool)   //nolint:errcheck // hash writes cannot fail
	enc.Encode(config) //nolint:errcheck
	enc.Encode(sizes)  //nolint:errcheck
	enc.Encode(seeds)  //nolint:errcheck
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Load reads and validates a manifest file.
func Load(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return &m, nil
}

// Validate checks the structural invariants a loaded manifest must
// satisfy before a report trusts it.
func (m *Manifest) Validate() error {
	if m.Schema < 1 || m.Schema > SchemaVersion {
		return fmt.Errorf("schema %d not in [1, %d] (regenerate the manifest or upgrade bcereport)", m.Schema, SchemaVersion)
	}
	if m.Tool == "" {
		return fmt.Errorf("missing tool")
	}
	seen := make(map[string]struct{}, len(m.Jobs))
	for i, j := range m.Jobs {
		if j.Key == "" {
			return fmt.Errorf("job %d: empty key", i)
		}
		if _, dup := seen[j.Key]; dup {
			return fmt.Errorf("job %d: duplicate key %q", i, j.Key)
		}
		seen[j.Key] = struct{}{}
		if j.Kind == "" {
			return fmt.Errorf("job %q: empty kind", j.Key)
		}
	}
	return nil
}

// Result unmarshals the named experiment result into out, reporting
// whether the manifest carries it.
func (m *Manifest) Result(name string, out any) (bool, error) {
	raw, ok := m.Results[name]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return true, fmt.Errorf("manifest: result %q: %w", name, err)
	}
	return true, nil
}

// processCPUSeconds reads the process's total CPU time from the
// runtime metrics (user+system, all Ps). Zero if unavailable.
func processCPUSeconds() float64 {
	sample := []rtmetrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// GitRevision returns the current source revision: the VCS stamp from
// build info when present (go build in a git checkout), otherwise `git
// rev-parse HEAD` run in the working directory, otherwise "unknown".
func GitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				return rev + "-dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}

// ShortRevision returns GitRevision truncated to 12 characters, the
// form file names use (BENCH_<rev>.json).
func ShortRevision() string {
	rev := GitRevision()
	rev = strings.TrimSuffix(rev, "-dirty")
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev
}
