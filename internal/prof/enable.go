package prof

import (
	"bytes"
	"flag"
	"log/slog"
	"runtime/pprof"
	"sync"
	"time"
)

// enable.go is the wiring every binary uses: RegisterFlags defines
// -profile-dir, and Enable turns it into one CPU profile spanning the
// process plus a heap snapshot at stop, both stored in the ring.
// Profiling is out-of-band: nothing here writes to stdout, so
// simulator output stays byte-identical with profiling on.

// Record describes one profile a process stored in its ring.
// Manifests embed these, so a later run can pull the bytes back from
// any ring holding the digest.
type Record struct {
	// Kind is the profile kind: "cpu" or "heap".
	Kind string `json:"kind"`
	// Digest is the ring content address of the profile bytes.
	Digest string `json:"digest"`
	// Bytes is the stored (compressed) size.
	Bytes int64 `json:"bytes"`
	// DurationSeconds is the wall time from Enable to stop.
	DurationSeconds float64 `json:"duration_seconds"`
}

// RegisterFlags defines -profile-dir on the command line and returns
// its value.
func RegisterFlags() *string {
	return flag.String("profile-dir", "", "record this process's CPU profile and an exit heap snapshot into a content-addressed ring in this directory (empty = profiling off)")
}

// Enable starts the process's CPU profile when dir is non-empty. The
// returned stop ends it, stores the CPU profile and a heap snapshot in
// the ring at dir, and returns their records. stop is idempotent, so a
// main can defer it and also call it early, before writing a manifest
// or calling os.Exit. With an empty dir nothing is profiled and stop
// returns nil.
//
// If something else already owns the CPU profiler (go test
// -cpuprofile, say), the process goes without a CPU record; the heap
// snapshot is still stored.
func Enable(dir string) (stop func() []Record, err error) {
	if dir == "" {
		return func() []Record { return nil }, nil
	}
	ring, err := OpenRing(dir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var cpu bytes.Buffer
	cpuOn := true
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		slog.Warn("no cpu profile for this process", "err", err)
		cpuOn = false
	}
	var (
		once sync.Once
		recs []Record
	)
	store := func(kind string, data []byte, dur float64) {
		digest, err := ring.Put(data)
		if err != nil {
			slog.Warn("profile store failed", "kind", kind, "err", err)
			return
		}
		recs = append(recs, Record{Kind: kind, Digest: digest, Bytes: int64(len(data)), DurationSeconds: dur})
	}
	return func() []Record {
		once.Do(func() {
			dur := time.Since(start).Seconds()
			if cpuOn {
				pprof.StopCPUProfile()
				store("cpu", cpu.Bytes(), dur)
			}
			var heap bytes.Buffer
			// debug=0 emits the gzipped protobuf form.
			if err := pprof.Lookup("heap").WriteTo(&heap, 0); err != nil {
				slog.Warn("heap snapshot failed", "err", err)
			} else {
				store("heap", heap.Bytes(), dur)
			}
			slog.Info("profiles stored", "dir", dir, "profiles", len(recs))
		})
		return recs
	}, nil
}
