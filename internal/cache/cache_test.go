package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ev8pred/internal/stats"
	"ev8pred/internal/trace/faultinject"
)

func testKey(n string) Key {
	return Key{Workload: "profile=" + n + "|instr=1000", Config: "gshare|entries=1024|hist=10", Options: "mode=false/false/0"}
}

func testEntry(k Key) *Entry {
	cs := stats.Counters{{Name: "updates", Value: 41}, {Name: "mispredicts", Value: 7}}
	return &Entry{
		Key: k, Predictor: "gshare-1K", Workload: "gcc",
		Branches: 1000, Mispredicts: 120, Instructions: 6400, SizeBits: 2048,
		Stats: &cs,
	}
}

// TestRoundTrip pins Put → Get identity, including the attribution
// counters, and the hit/miss/put counters.
func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("gcc")
	if _, hit, err := s.Get(k); hit || err != nil {
		t.Fatalf("empty store: hit=%v err=%v", hit, err)
	}
	want := testEntry(k)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, hit, err := s.Get(k)
	if err != nil || !hit {
		t.Fatalf("after put: hit=%v err=%v", hit, err)
	}
	if got.Key != want.Key || got.Predictor != want.Predictor || got.Workload != want.Workload ||
		got.Branches != want.Branches || got.Mispredicts != want.Mispredicts ||
		got.Instructions != want.Instructions || got.SizeBits != want.SizeBits {
		t.Errorf("entry changed across the store:\n got %+v\nwant %+v", got, want)
	}
	if got.Stats == nil || len(*got.Stats) != 2 || (*got.Stats)[0] != (*want.Stats)[0] || (*got.Stats)[1] != (*want.Stats)[1] {
		t.Errorf("stats changed across the store: %+v", got.Stats)
	}
	if hits, misses, readErrs, puts := s.Counts(); hits != 1 || misses != 1 || readErrs != 0 || puts != 1 {
		t.Errorf("counts = %d/%d/%d/%d, want 1/1/0/1", hits, misses, readErrs, puts)
	}

	// A nil-Stats entry must come back nil, not empty.
	k2 := testKey("go")
	e2 := testEntry(k2)
	e2.Stats = nil
	if err := s.Put(e2); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get(k2); err != nil || got.Stats != nil {
		t.Errorf("nil stats round trip: stats=%v err=%v", got.Stats, err)
	}
}

// TestKeyAlgebra pins the content addressing: every part feeds the hash,
// length prefixes prevent concatenation collisions, incomplete keys are
// rejected by both ends of the store.
func TestKeyAlgebra(t *testing.T) {
	base := testKey("gcc")
	variants := []Key{
		{Workload: base.Workload + "x", Config: base.Config, Options: base.Options},
		{Workload: base.Workload, Config: base.Config + "x", Options: base.Options},
		{Workload: base.Workload, Config: base.Config, Options: base.Options + "x"},
		// Shuffling bytes across part boundaries must not collide.
		{Workload: base.Workload + "a", Config: "b" + base.Config, Options: base.Options},
	}
	seen := map[string]bool{base.Hash(): true}
	for _, v := range variants {
		h := v.Hash()
		if seen[h] {
			t.Errorf("key %+v collides", v)
		}
		seen[h] = true
	}
	if base.Hash() != base.Hash() {
		t.Error("hash not deterministic")
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Key{{}, {Workload: "w"}, {Workload: "w", Options: "o"}} {
		if _, _, err := s.Get(bad); err == nil {
			t.Errorf("Get accepted incomplete key %+v", bad)
		}
		if err := s.Put(&Entry{Key: bad}); err == nil {
			t.Errorf("Put accepted incomplete key %+v", bad)
		}
	}
}

// TestCorruptionDetected runs the fault-injection enumerators over a
// stored entry: every truncation and every single-bit flip must surface
// as a miss plus an error wrapping ErrCorrupt — never a hit with wrong
// numbers, never a panic — and the first refusal unlinks the bad file.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("gcc")
	want := testEntry(k)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	path := s.path(k)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, mutant []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutant, 0o644); err != nil {
			t.Fatal(err)
		}
		e, hit, gerr := s.Get(k)
		if hit || e != nil {
			t.Fatalf("%s: corrupt entry served as a hit: %+v", label, e)
		}
		if !errors.Is(gerr, ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCorrupt", label, gerr)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: corrupt entry not unlinked (stat: %v)", label, err)
		}
	}
	faultinject.EachTruncation(pristine, func(n int, mutant []byte) {
		check(fmt.Sprintf("truncate@%d", n), mutant)
	})
	faultinject.EachBitFlip(pristine, func(off int, bit uint, mutant []byte) {
		check(fmt.Sprintf("flip@%d.%d", off, bit), mutant)
	})

	// The intact bytes still work afterwards.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.Get(k); !hit || err != nil {
		t.Fatalf("pristine entry refused: hit=%v err=%v", hit, err)
	}
}

// TestWrongKeyInFile covers the hash-collision / renamed-file case: an
// intact entry sitting under another key's path is refused, not served.
func TestWrongKeyInFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("gcc")
	if err := s.Put(testEntry(k)); err != nil {
		t.Fatal(err)
	}
	other := testKey("go")
	if err := os.Rename(s.path(k), s.path(other)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.Get(other); hit || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misfiled entry: hit=%v err=%v", hit, err)
	}
}

// TestPutIsAtomic pins that Put leaves no temp files behind and that a
// re-Put (same key) replaces the entry cleanly.
func TestPutIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("gcc")
	e := testEntry(k)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	e.Mispredicts = 99
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), ".put-") {
			t.Errorf("temp file left behind: %s", de.Name())
		}
		if filepath.Ext(de.Name()) != ".ev8c" {
			t.Errorf("unexpected file in store: %s", de.Name())
		}
	}
	got, hit, err := s.Get(k)
	if err != nil || !hit || got.Mispredicts != 99 {
		t.Fatalf("re-put not visible: hit=%v err=%v entry=%+v", hit, err, got)
	}
}

// TestPutEntryWorldReadable is the shared-mount regression: CreateTemp
// makes the temp 0600, and renaming it into place unchanged would publish
// entries only their writer can read. A published entry must be 0644.
func TestPutEntryWorldReadable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("gcc")
	if err := s.Put(testEntry(k)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(s.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("published entry mode = %o, want 644", perm)
	}
}

// TestOpenCollectsOrphanedTemps pins the kill-and-resume hygiene: a
// `.put-*` temp abandoned by a killed run is collected on the next Open,
// while a fresh temp — possibly another process's in-flight Put — and
// real entries survive.
func TestOpenCollectsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("gcc")
	if err := s.Put(testEntry(k)); err != nil {
		t.Fatal(err)
	}

	stale := filepath.Join(dir, ".put-stale123")
	fresh := filepath.Join(dir, ".put-fresh456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial entry bytes"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp not collected (stat: %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh in-flight temp collected: %v", err)
	}
	if _, hit, err := s.Get(k); !hit || err != nil {
		t.Errorf("real entry lost to the sweep: hit=%v err=%v", hit, err)
	}
}

// TestReadErrorIsNotAMiss pins the Counts distinction: a present entry
// that cannot be read (here: the entry path is a directory, a reliable
// read failure even when the tests run as root) is a read error, not a
// miss, and the file is left in place rather than speculatively removed.
func TestReadErrorIsNotAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("gcc")
	if err := os.Mkdir(s.path(k), 0o755); err != nil {
		t.Fatal(err)
	}
	e, hit, gerr := s.Get(k)
	if hit || e != nil {
		t.Fatalf("unreadable entry served as a hit: %+v", e)
	}
	if gerr == nil {
		t.Fatal("unreadable entry produced no error")
	}
	if errors.Is(gerr, ErrCorrupt) {
		t.Errorf("I/O failure misreported as corruption: %v", gerr)
	}
	if hits, misses, readErrs, puts := s.Counts(); hits != 0 || misses != 0 || readErrs != 1 || puts != 0 {
		t.Errorf("counts = %d/%d/%d/%d, want 0/0/1/0 (read error, not miss)", hits, misses, readErrs, puts)
	}
	if _, err := os.Stat(s.path(k)); err != nil {
		t.Errorf("unreadable entry was removed: %v", err)
	}
}

// TestTwoStoresOneDirHammer is the cross-process concurrency regression:
// two Store handles on one directory, hammered by goroutines, must behave
// like one shared cache. Phase 1 races many readers over one corrupt
// entry — every reader sees a clean miss or an ErrCorrupt refusal, never
// a spurious unlink error from losing the os.Remove race. Phase 2 races
// duplicate Puts against Gets — every Get sees a miss or the intact
// entry, and the store ends with exactly one entry file and no temps.
func TestTwoStoresOneDirHammer(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stores := []*Store{s1, s2}

	// Phase 1: shared corrupt entry, concurrent detection and unlink.
	corrupt := testKey("gcc")
	if err := os.WriteFile(s1.path(corrupt), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	const readers = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		badErrs []error
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			e, hit, gerr := s.Get(corrupt)
			if hit || e != nil || (gerr != nil && !errors.Is(gerr, ErrCorrupt)) ||
				(gerr != nil && strings.Contains(gerr.Error(), "unlink failed")) {
				mu.Lock()
				badErrs = append(badErrs, fmt.Errorf("hit=%v entry=%v err=%w", hit, e, gerr))
				mu.Unlock()
			}
		}(stores[i%len(stores)])
	}
	wg.Wait()
	for _, e := range badErrs {
		t.Errorf("corrupt-entry race: %v", e)
	}
	if _, err := os.Stat(s1.path(corrupt)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt entry survived the hammer (stat: %v)", err)
	}

	// Phase 2: duplicate Puts racing Gets on a fresh key.
	k := testKey("go")
	want := testEntry(k)
	const pairs = 16
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		go func(s *Store) {
			defer wg.Done()
			if err := s.Put(want); err != nil {
				mu.Lock()
				badErrs = append(badErrs, fmt.Errorf("put: %w", err))
				mu.Unlock()
			}
		}(stores[i%len(stores)])
		go func(s *Store) {
			defer wg.Done()
			e, hit, gerr := s.Get(k)
			if gerr != nil || (hit && e.Mispredicts != want.Mispredicts) {
				mu.Lock()
				badErrs = append(badErrs, fmt.Errorf("get: hit=%v err=%w entry=%+v", hit, gerr, e))
				mu.Unlock()
			}
		}(stores[(i+1)%len(stores)])
	}
	wg.Wait()
	for _, e := range badErrs {
		t.Errorf("put/get race: %v", e)
	}
	if _, hit, err := s2.Get(k); !hit || err != nil {
		t.Fatalf("entry not readable after the hammer: hit=%v err=%v", hit, err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var entryFiles int
	for _, de := range files {
		if strings.HasPrefix(de.Name(), ".put-") {
			t.Errorf("temp file left behind: %s", de.Name())
		}
		if filepath.Ext(de.Name()) == ".ev8c" {
			entryFiles++
		}
	}
	if entryFiles != 1 {
		t.Errorf("%d entry files after duplicate puts of one key, want 1", entryFiles)
	}
}

// TestEntryWireGolden pins encodeEntry's bytes for a fixed entry, so a
// store prewarmed by an older build keeps hitting.
func TestEntryWireGolden(t *testing.T) {
	const want = "7d7058efd33dc227d39467c034a4584f5b0ac21b035611a0ebbdbd27acd908a9"
	data, err := encodeEntry(testEntry(testKey("gcc")))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("entry sha256 %s, want %s", got, want)
	}
}
