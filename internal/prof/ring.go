package prof

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ring.go is the content-addressed profile store: each profile is one
// file named by the sha256 of its bytes, bounded by entry-count and
// total-byte caps with oldest-first eviction — the same
// write-then-rename, digest-named discipline as the runner's result
// cache, so the two can live side by side. Content addressing is what
// makes cross-run attribution cheap: a manifest records only digests,
// and any ring holding those digests can serve the bytes. Every entry
// is a gzipped pprof file that `go tool pprof` reads as is.

const ringSuffix = ".pprof"

// The ring's bounds: enough for weeks of runs at typical
// 10KB-200KB per profile.
const (
	ringMaxEntries = 512
	ringMaxBytes   = 256 << 20
)

// Ring is an open profile ring directory.
type Ring struct {
	dir        string
	maxEntries int
	maxBytes   int64
}

// OpenRing opens (creating if needed) a ring at dir.
func OpenRing(dir string) (*Ring, error) {
	if dir == "" {
		return nil, fmt.Errorf("prof: ring: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: ring: %w", err)
	}
	return &Ring{dir: dir, maxEntries: ringMaxEntries, maxBytes: ringMaxBytes}, nil
}

// Digest returns the content address of data: "sha256:<hex>".
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// fileFor maps a digest to its path inside the ring, rejecting
// anything that isn't a well-formed digest (defense against path
// escape via a doctored manifest).
func (r *Ring) fileFor(digest string) (string, error) {
	hexpart, ok := strings.CutPrefix(digest, "sha256:")
	if !ok || len(hexpart) != 64 {
		return "", fmt.Errorf("prof: ring: malformed digest %q", digest)
	}
	if _, err := hex.DecodeString(hexpart); err != nil {
		return "", fmt.Errorf("prof: ring: malformed digest %q", digest)
	}
	return filepath.Join(r.dir, hexpart+ringSuffix), nil
}

// Put stores data, returning its digest. Writing is
// write-then-rename so a concurrent reader never sees a torn file;
// storing bytes that already exist is a no-op (content addressing
// makes it idempotent). Eviction runs after every put.
func (r *Ring) Put(data []byte) (string, error) {
	digest := Digest(data)
	path, err := r.fileFor(digest)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(path); err == nil {
		return digest, nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("prof: ring: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("prof: ring: %w", err)
	}
	r.evict(digest)
	return digest, nil
}

// Get returns the stored bytes for digest, verifying content
// integrity on the way out.
func (r *Ring) Get(digest string) ([]byte, error) {
	path, err := r.fileFor(digest)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("prof: ring: %w", err)
	}
	if got := Digest(data); got != digest {
		return nil, fmt.Errorf("prof: ring: %s corrupt (content hashes to %s)", digest, got)
	}
	return data, nil
}

// Diff parses the two stored profiles and diffs them (see Diff).
func (r *Ring) Diff(baseDigest, candDigest string) (*Delta, error) {
	var ps [2]*Profile
	for i, digest := range []string{baseDigest, candDigest} {
		data, err := r.Get(digest)
		if err != nil {
			return nil, err
		}
		if ps[i], err = Parse(data); err != nil {
			return nil, err
		}
	}
	return Diff(ps[0], ps[1])
}

// Has reports whether digest is present.
func (r *Ring) Has(digest string) bool {
	path, err := r.fileFor(digest)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// RingEntry describes one stored profile.
type RingEntry struct {
	Digest  string `json:"digest"`
	Bytes   int64  `json:"bytes"`
	ModUnix int64  `json:"mod_unix"`
}

// List returns the ring's entries, oldest first.
func (r *Ring) List() ([]RingEntry, error) {
	des, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("prof: ring: %w", err)
	}
	var out []RingEntry
	for _, de := range des {
		name := de.Name()
		hexpart, ok := strings.CutSuffix(name, ringSuffix)
		if !ok || len(hexpart) != 64 {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, RingEntry{
			Digest:  "sha256:" + hexpart,
			Bytes:   info.Size(),
			ModUnix: info.ModTime().UnixNano(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ModUnix != out[j].ModUnix {
			return out[i].ModUnix < out[j].ModUnix
		}
		return out[i].Digest < out[j].Digest
	})
	return out, nil
}

// evict drops oldest entries until both bounds hold, never dropping
// keep (the entry just written).
func (r *Ring) evict(keep string) {
	entries, err := r.List()
	if err != nil {
		return
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	count := len(entries)
	for _, e := range entries {
		if count <= r.maxEntries && total <= r.maxBytes {
			break
		}
		if e.Digest == keep {
			continue
		}
		if path, err := r.fileFor(e.Digest); err == nil {
			if os.Remove(path) == nil {
				count--
				total -= e.Bytes
			}
		}
	}
}
