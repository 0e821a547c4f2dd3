// Package faults is the fault-injection harness behind the chaos test
// suite: deliberately broken io.Readers, cache-store corruptors, and
// countdown injectors for induced failures, panics and hangs. The
// production packages never import it; tests use it to prove the
// robustness machinery — store quarantine, wire content digests,
// bounded retry, per-job deadlines, the pipeline watchdog — actually
// degrades gracefully instead of merely existing.
package faults

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"bce/internal/cache"
)

// HangHierarchy returns a data-cache hierarchy whose memory level
// never answers within a simulation's lifetime (~10^15 cycles): the
// first L2-missing load wedges the ROB head, which is exactly the
// livelock the pipeline's forward-progress watchdog exists to catch.
func HangHierarchy() *cache.Hierarchy {
	return cache.NewHierarchy(cache.HierarchyConfig{
		Lat: cache.Latencies{L1: 3, L2: 16, Memory: 1 << 50},
	})
}

// FlipReader wraps r and flips the bits under mask in the single byte
// at offset (counting from the start of the stream). Everything else
// passes through untouched — the minimal corruption a checksum must
// catch.
type FlipReader struct {
	r      io.Reader
	offset int64
	mask   byte
	pos    int64
}

// NewFlipReader returns a reader that corrupts byte offset with mask.
// A zero mask defaults to 0x01 (a single bit flip).
func NewFlipReader(r io.Reader, offset int64, mask byte) *FlipReader {
	if mask == 0 {
		mask = 0x01
	}
	return &FlipReader{r: r, offset: offset, mask: mask}
}

// Read implements io.Reader.
func (f *FlipReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.offset >= f.pos && f.offset < f.pos+int64(n) {
		p[f.offset-f.pos] ^= f.mask
	}
	f.pos += int64(n)
	return n, err
}

// CorruptDirEntry corrupts one stored cache entry in a runner.DirStore
// directory by truncating it mid-JSON, returning the victim's path.
// It picks the first *.json entry (lexicographic) so tests are
// deterministic.
func CorruptDirEntry(dir string) (string, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return "", err
	}
	if len(entries) == 0 {
		return "", fmt.Errorf("faults: no cache entries in %s", dir)
	}
	victim := entries[0]
	data, err := os.ReadFile(victim)
	if err != nil {
		return "", err
	}
	cut := len(data) / 2
	if cut == 0 {
		cut = 1
	}
	if err := os.WriteFile(victim, data[:cut], 0o644); err != nil {
		return "", err
	}
	return victim, nil
}

// Injector trips a fault on each of its first N uses and then stands
// down, modeling transient environmental failures that succeed on
// retry. It is safe for concurrent use.
type Injector struct {
	left atomic.Int64
}

// NewInjector returns an injector armed for n trips.
func NewInjector(n int) *Injector {
	i := &Injector{}
	i.left.Store(int64(n))
	return i
}

// Trip reports whether this use should fault, consuming one armed
// trip if so.
func (i *Injector) Trip() bool {
	for {
		n := i.left.Load()
		if n <= 0 {
			return false
		}
		if i.left.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Remaining returns the number of trips still armed.
func (i *Injector) Remaining() int { return int(i.left.Load()) }

// Fail returns err on each of the injector's armed trips and nil
// afterwards.
func (i *Injector) Fail(err error) error {
	if i.Trip() {
		return err
	}
	return nil
}

// Panic panics with value on each armed trip.
func (i *Injector) Panic(value any) {
	if i.Trip() {
		panic(value)
	}
}

// Hang blocks until done is closed (or cancelled) on each armed trip,
// modeling a wedged job that only a per-job deadline can reclaim.
func (i *Injector) Hang(done <-chan struct{}) {
	if i.Trip() {
		<-done
	}
}
