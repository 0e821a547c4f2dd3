package prof

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestRingPutGet(t *testing.T) {
	r, err := OpenRing(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("profile bytes")
	digest, err := r.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if digest != Digest(data) {
		t.Errorf("Put digest %q != Digest %q", digest, Digest(data))
	}
	if !strings.HasPrefix(digest, "sha256:") || len(digest) != len("sha256:")+64 {
		t.Errorf("malformed digest %q", digest)
	}
	if !r.Has(digest) {
		t.Error("Has = false after Put")
	}
	got, err := r.Get(digest)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != string(data) {
		t.Errorf("Get = %q, want %q", got, data)
	}
	// Idempotent re-put.
	if d2, err := r.Put(data); err != nil || d2 != digest {
		t.Errorf("second Put = (%q, %v)", d2, err)
	}
	if entries, err := r.List(); err != nil || len(entries) != 1 {
		t.Errorf("List = (%d entries, %v), want 1", len(entries), err)
	}
}

func TestRingRejectsMalformedDigests(t *testing.T) {
	r, err := OpenRing(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"",
		"deadbeef",
		"sha256:short",
		"sha256:../../../../etc/passwd0000000000000000000000000000000000000000",
		"sha256:zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
	} {
		if _, err := r.Get(bad); err == nil {
			t.Errorf("Get(%q) succeeded, want malformed-digest error", bad)
		}
		if r.Has(bad) {
			t.Errorf("Has(%q) = true", bad)
		}
	}
}

func TestRingDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRing(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := r.Put([]byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.TrimPrefix(digest, "sha256:")+".pprof")
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(digest); err == nil {
		t.Error("Get returned tampered bytes without error")
	}
}

func TestRingEvictsByEntryCount(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRing(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.maxEntries = 2
	var digests []string
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		data := []byte(fmt.Sprintf("profile-%d", i))
		d, err := r.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
		// Pin distinct mtimes so "oldest" is unambiguous regardless of
		// filesystem timestamp resolution.
		path := filepath.Join(dir, strings.TrimPrefix(d, "sha256:")+".pprof")
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// The third Put ran eviction before we re-stamped its mtime, so the
	// oldest of the first two is already gone; one more Put re-runs
	// eviction against the pinned stamps.
	d, err := r.Put([]byte("profile-3"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has(d) {
		t.Error("just-written entry was evicted")
	}
	entries, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 2 {
		t.Errorf("ring holds %d entries, want <= 2", len(entries))
	}
	if r.Has(digests[0]) {
		t.Error("oldest entry survived eviction")
	}
}

func TestRingEvictsByBytes(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRing(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.maxBytes = 100
	old, err := r.Put(make([]byte, 80))
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	path := filepath.Join(dir, strings.TrimPrefix(old, "sha256:")+".pprof")
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	fresh, err := r.Put(append(make([]byte, 80), 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Has(old) {
		t.Error("old entry survived byte-bound eviction")
	}
	if !r.Has(fresh) {
		t.Error("fresh entry was evicted")
	}
}

func TestOpenRingEmptyDir(t *testing.T) {
	if _, err := OpenRing(""); err == nil {
		t.Error("OpenRing(\"\") succeeded")
	}
}

func TestRingDiff(t *testing.T) {
	r, err := OpenRing(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put := func(data []byte) string {
		t.Helper()
		d, err := r.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	heap := func() []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := put(heap())
	burnSink = burnCPU(1 << 10) // any work between the two snapshots
	cand := put(heap())
	d, err := r.Diff(base, cand)
	if err != nil {
		t.Fatalf("Diff of two stored heap profiles: %v", err)
	}
	if d.Unit != "bytes" {
		t.Errorf("Unit = %q, want bytes", d.Unit)
	}
	if _, err := r.Diff(base, put([]byte("not a profile"))); err == nil {
		t.Error("Diff against unparseable bytes succeeded")
	}
	if _, err := r.Diff(base, Digest([]byte("never stored"))); err == nil {
		t.Error("Diff against a missing digest succeeded")
	}
}
