package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Save("alpha", []byte(`{"ipc":1.5}`))
	j.Save("beta", []byte(`[1,2,3]`))
	j.Save("alpha", []byte(`{"ipc":2.5}`)) // overwrite: last record wins
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Replayed(); got != 3 {
		t.Errorf("Replayed = %d, want 3", got)
	}
	if got := j2.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	data, ok := j2.Load("alpha")
	if !ok || string(data) != `{"ipc":2.5}` {
		t.Errorf("alpha = %q, %v; want last-written value", data, ok)
	}
	if _, ok := j2.Load("gamma"); ok {
		t.Error("phantom key gamma")
	}
}

// A crash mid-append leaves a torn final line. Reopen must keep every
// complete record, drop the tail, and keep accepting appends.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Save("a", []byte(`1`))
	j.Save("b", []byte(`2`))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: half a record at the end.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","da`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got := j2.Replayed(); got != 2 {
		t.Errorf("Replayed = %d, want 2", got)
	}
	if _, ok := j2.Load("c"); ok {
		t.Error("torn record resurrected")
	}
	// The journal must still be appendable and the append must survive
	// another reopen (the torn bytes were truncated away).
	j2.Save("d", []byte(`4`))
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := j3.Replayed(); got != 3 {
		t.Errorf("after torn-tail truncate+append: Replayed = %d, want 3", got)
	}
	if data, ok := j3.Load("d"); !ok || string(data) != `4` {
		t.Errorf("d = %q, %v", data, ok)
	}
}

// TestJournalTornTailAtRecordBoundary covers the two boundary shapes a
// crash can leave: a file ending exactly after a complete record's
// newline (nothing may be lost, the truncate is a no-op), and a final
// record whose bytes are complete JSON but whose newline never made it
// to disk (must be treated as torn — replaying it and then appending
// would glue two records onto one line and corrupt both).
func TestJournalTornTailAtRecordBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Save("a", []byte(`1`))
	j.Save("b", []byte(`2`))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, path)

	// Clean boundary: reopen must keep everything and change nothing.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Replayed(); got != 2 {
		t.Errorf("clean-boundary Replayed = %d, want 2", got)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != sizeBefore {
		t.Errorf("clean reopen changed file size %d -> %d", sizeBefore, got)
	}

	// Unterminated boundary: a complete record whose '\n' was lost.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","data":3}`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := j3.Replayed(); got != 2 {
		t.Errorf("unterminated tail Replayed = %d, want 2 (torn record dropped)", got)
	}
	if _, ok := j3.Load("c"); ok {
		t.Error("unterminated record resurrected")
	}
	// The append that would previously have glued onto c's line.
	j3.Save("d", []byte(`4`))
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	j4, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if got := j4.Replayed(); got != 3 {
		t.Errorf("after truncate+append: Replayed = %d, want 3", got)
	}
	if data, ok := j4.Load("d"); !ok || string(data) != `4` {
		t.Errorf("d = %q, %v (append landed on a corrupted line?)", data, ok)
	}
}

// TestJournalDuplicateKeyResume: duplicate keys across resume cycles
// keep last-write-wins semantics — Replayed counts raw records, Len
// counts distinct keys, and a post-resume overwrite survives the next
// resume.
func TestJournalDuplicateKeyResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Save("k", []byte(`"first"`))
	j.Save("k", []byte(`"second"`))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Replayed() != 2 || j2.Len() != 1 {
		t.Errorf("Replayed/Len = %d/%d, want 2/1", j2.Replayed(), j2.Len())
	}
	if data, _ := j2.Load("k"); string(data) != `"second"` {
		t.Errorf("k = %q, want last-written value", data)
	}
	j2.Save("k", []byte(`"third"`)) // overwrite on the resumed journal
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Replayed() != 3 || j3.Len() != 1 {
		t.Errorf("second resume Replayed/Len = %d/%d, want 3/1", j3.Replayed(), j3.Len())
	}
	if data, _ := j3.Load("k"); string(data) != `"third"` {
		t.Errorf("k = %q after second resume", data)
	}
}

// TestJournalEmptyResume: resuming from an empty or whitespace-only
// journal (a sweep killed before its first checkpoint) must succeed
// and accept appends.
func TestJournalEmptyResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // zero Saves
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("empty-journal resume: %v", err)
	}
	if j2.Replayed() != 0 || j2.Len() != 0 {
		t.Errorf("empty journal Replayed/Len = %d/%d, want 0/0", j2.Replayed(), j2.Len())
	}
	j2.Save("first", []byte(`1`))
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Whitespace-only content (e.g. an editor or tool touched the file).
	blank := filepath.Join(t.TempDir(), "blank.journal")
	if err := os.WriteFile(blank, []byte("\n\n  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(blank)
	if err != nil {
		t.Fatalf("whitespace-only resume: %v", err)
	}
	defer j3.Close()
	if j3.Replayed() != 0 {
		t.Errorf("whitespace lines replayed as records: %d", j3.Replayed())
	}
	j3.Save("x", []byte(`true`))
	if data, ok := j3.Load("x"); !ok || string(data) != `true` {
		t.Errorf("x = %q, %v", data, ok)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

type mapStore map[string][]byte

func (m mapStore) Load(key string) ([]byte, bool) { d, ok := m[key]; return d, ok }
func (m mapStore) Save(key string, data []byte)   { m[key] = data }

func TestTieredStore(t *testing.T) {
	front, back := mapStore{}, mapStore{}
	back["old"] = []byte(`1`)
	ts := Tiered(front, nil, back)
	if data, ok := ts.Load("old"); !ok || string(data) != `1` {
		t.Errorf("back-tier load = %q, %v", data, ok)
	}
	ts.Save("new", []byte(`2`))
	if string(front["new"]) != `2` || string(back["new"]) != `2` {
		t.Errorf("write-through missed a tier: front=%q back=%q", front["new"], back["new"])
	}
	front["both"] = []byte(`front`)
	back["both"] = []byte(`back`)
	if data, _ := ts.Load("both"); string(data) != `front` {
		t.Errorf("tier order violated: got %q", data)
	}
	if Tiered(nil, nil) != nil {
		t.Error("Tiered of nils should be nil")
	}
	if Tiered(front) == nil {
		t.Error("Tiered of one store should be that store")
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("structured abort")
	p := New(Options{Workers: 1})
	_, err := Map(context.Background(), p, []int{1}, func(ctx context.Context, i, item int) (int, error) {
		panic(fmt.Errorf("wrapped: %w", sentinel))
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is through PanicError failed: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("not a PanicError: %v", err)
	}
	if (&PanicError{Value: "not an error"}).Unwrap() != nil {
		t.Error("non-error panic value should unwrap to nil")
	}
}

func TestDirStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := LiveSnapshot().StoreQuarantined

	// Corrupt entry: not JSON at all.
	key := "experiment-a"
	path := filepath.Join(dir, fmt.Sprintf("%016x.json", Fingerprint(key)))
	if err := os.WriteFile(path, []byte("\x00\xffgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key); ok {
		t.Fatal("corrupt entry loaded")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry still shadowing its slot")
	}
	if got := LiveSnapshot().StoreQuarantined - before; got != 1 {
		t.Errorf("StoreQuarantined advanced by %d, want 1", got)
	}
	// The slot works again.
	s.Save(key, []byte(`{"ok":true}`))
	if data, ok := s.Load(key); !ok || !strings.Contains(string(data), "ok") {
		t.Errorf("post-quarantine save/load = %q, %v", data, ok)
	}

	// A valid envelope under the wrong key is a collision, not
	// corruption: plain miss, no quarantine.
	other := "experiment-b"
	otherPath := filepath.Join(dir, fmt.Sprintf("%016x.json", Fingerprint(other)))
	if err := os.WriteFile(otherPath, []byte(`{"key":"someone-else","data":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(other); ok {
		t.Error("collision loaded as hit")
	}
	if _, err := os.Stat(otherPath); err != nil {
		t.Error("collision entry was quarantined; it belongs to another key")
	}
}
