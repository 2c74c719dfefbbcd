// Package cache is the content-addressed result cache: a simulation
// result, once computed, is stored on disk under a key derived from
// everything that determines it — the workload definition and instruction
// budget, the predictor's canonical configuration, and the
// result-affecting simulation options — so re-running an experiment whose
// inputs have not changed costs a file read instead of a stream
// simulation (docs/CACHING.md).
//
// The package owns only the store and the key algebra. The key *parts*
// are canonical strings built by the simulation layer (internal/sim),
// which knows what is result-affecting; this package hashes them, which
// keeps it free of simulation imports and available to every layer.
//
// # Integrity
//
// Entries ride the same checksummed container as predictor snapshots
// (internal/snapshot): a truncated, bit-flipped or hand-edited entry
// fails its CRC and is reported as a miss plus a typed error
// (ErrCorrupt), never as a silently wrong result. A corrupt entry is
// unlinked on detection so it cannot re-fire on every run. Writes are
// atomic (temp file + rename into place), so a crashed or killed run
// never leaves a partially written entry behind.
//
// # Multi-process sharing
//
// One directory may be shared by any number of Store handles in any
// number of processes — that is how sweep shards coordinate
// (docs/SHARDING.md). The store therefore assumes nothing a single
// process could get away with: published entries are world-readable, not
// CreateTemp-private; the corrupt-entry unlink is idempotent (two readers
// detecting the same bad file race on os.Remove, and the loser's ENOENT
// means the work is done, not that anything failed); temp files orphaned
// by killed runs are swept on Open, but only once they are old enough
// that they cannot be another process's in-flight Put; and a
// present-but-unreadable entry is accounted as a read error, never
// silently as a miss.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ev8pred/internal/snapshot"
	"ev8pred/internal/stats"
)

// entryLabel versions the on-disk entry format; bump it to invalidate
// every existing entry after an incompatible change.
const entryLabel = "cache.Entry/v1"

// DefaultDir is the conventional store location the CLI flags default to;
// the repo's .gitignore excludes it.
const DefaultDir = ".ev8cache"

// ErrCorrupt marks an on-disk entry that failed validation — bad frame,
// checksum mismatch, malformed payload, or a key that does not match the
// requested one. Callers treat it as a miss and recompute; the error
// value exists so a verbose caller can report WHY the hit was refused.
var ErrCorrupt = errors.New("cache: corrupt entry")

// Key identifies one simulation result by its canonical inputs. The three
// parts are opaque strings to this package; the simulation layer
// guarantees that two runs with equal parts are byte-identical and that
// any result-affecting difference changes at least one part.
type Key struct {
	// Workload canonicalizes the branch-stream definition: the full
	// workload profile plus the instruction budget.
	Workload string `json:"workload"`
	// Config is the predictor's predictor.ConfigKeyer string. Empty
	// means "not cacheable" and is rejected by the store.
	Config string `json:"config"`
	// Options canonicalizes the result-affecting simulation options.
	Options string `json:"options"`
}

// Hash returns the content address: SHA-256 over the length-prefixed key
// parts (length prefixes keep distinct part triples from colliding by
// concatenation).
func (k Key) Hash() string {
	h := sha256.New()
	var n [8]byte
	for _, part := range []string{k.Workload, k.Config, k.Options} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Valid reports whether the key can address an entry: every part present.
func (k Key) Valid() bool {
	return k.Workload != "" && k.Config != "" && k.Options != ""
}

// Entry is one cached simulation result. The fields mirror sim.Result
// without importing it (the simulation layer converts); Stats is nil for
// runs without attribution collection.
type Entry struct {
	Key          Key             `json:"key"`
	Predictor    string          `json:"predictor"`
	Workload     string          `json:"workload"`
	Branches     int64           `json:"branches"`
	Mispredicts  int64           `json:"mispredicts"`
	Instructions int64           `json:"instructions"`
	SizeBits     int             `json:"size_bits"`
	Stats        *stats.Counters `json:"stats,omitempty"`
}

// Store is an on-disk result cache rooted at one directory. It is safe
// for concurrent use — by goroutines sharing one Store and by Stores in
// different processes sharing one directory: entries are immutable once
// written, writes are atomic renames, the corrupt-entry unlink is
// idempotent, and the hit/miss/error/put counters are atomic.
type Store struct {
	dir      string
	hits     atomic.Int64
	misses   atomic.Int64
	readErrs atomic.Int64
	puts     atomic.Int64
}

// staleTempAge is how old an in-flight `.put-*` temp file must be before
// Open treats it as the orphan of a killed run and collects it. Entries
// are kilobytes, so a healthy Put lives milliseconds; an hour is far past
// any live write yet short enough that a store shared across repeated
// kill-and-resume shard runs does not accumulate garbage forever.
const staleTempAge = time.Hour

// Open creates (if needed) and opens a store rooted at dir, collecting
// any temp files orphaned there by killed runs.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	sweepStaleTemps(dir)
	return &Store{dir: dir}, nil
}

// sweepStaleTemps removes `.put-*` temp files orphaned by killed runs —
// exactly the kill-and-resume flow sweep sharding makes routine. Only
// temps older than staleTempAge go: a fresh temp may be another process's
// in-flight Put, and unlinking it would make that writer's rename fail.
// Failures are ignored; the sweep is best-effort hygiene, and a
// concurrent Open may have collected a temp first.
func sweepStaleTemps(dir string) {
	names, err := filepath.Glob(filepath.Join(dir, ".put-*"))
	if err != nil {
		return
	}
	for _, name := range names {
		fi, err := os.Lstat(name)
		if err != nil || !fi.Mode().IsRegular() {
			continue
		}
		if time.Since(fi.ModTime()) >= staleTempAge {
			os.Remove(name)
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counts returns how many Gets hit, how many found no entry, how many
// failed to read a present entry (permissions, I/O — NOT misses: the
// entry exists and recomputing it is waste the caller may want to know
// about), and how many entries were Put over this store's lifetime (the
// zero-simulation-work test asserts a warm re-run is all hits and no
// puts).
func (s *Store) Counts() (hits, misses, readErrors, puts int64) {
	return s.hits.Load(), s.misses.Load(), s.readErrs.Load(), s.puts.Load()
}

// Snapshot is Counts as a serializable record, for surfaces that report
// store health over the wire — the ev8serve daemon's /healthz includes
// one, so an operator watching a long-running shared store sees read
// errors (disk trouble) separately from misses (cold cells).
type Snapshot struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	ReadErrors int64 `json:"read_errors"`
	Puts       int64 `json:"puts"`
}

// Snapshot captures the current counters.
func (s *Store) Snapshot() Snapshot {
	h, m, r, p := s.Counts()
	return Snapshot{Hits: h, Misses: m, ReadErrors: r, Puts: p}
}

// path maps a key to its entry file.
func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.Hash()+".ev8c")
}

// Get looks the key up. A present, intact entry returns (entry, true,
// nil). An absent entry returns (nil, false, nil). A present-but-corrupt
// entry returns (nil, false, err) with err wrapping ErrCorrupt — the
// caller recomputes exactly as on a clean miss, and the bad file is
// unlinked so it is paid for once.
func (s *Store) Get(k Key) (*Entry, bool, error) {
	if !k.Valid() {
		return nil, false, fmt.Errorf("cache: incomplete key %+v", k)
	}
	path := s.path(k)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		// The entry exists but could not be read (permissions, I/O). That
		// is not a miss — counting it as one makes an unreadable shared
		// store indistinguishable from a cold one — and the file is left
		// in place: it may be perfectly intact for the next reader.
		s.readErrs.Add(1)
		return nil, false, fmt.Errorf("cache: reading %s: %w", path, err)
	}
	e, err := decodeEntry(data)
	if err == nil && e.Key != k {
		err = fmt.Errorf("%w: %s holds key %+v, wanted %+v", ErrCorrupt, filepath.Base(path), e.Key, k)
	}
	if err != nil {
		s.misses.Add(1)
		if rerr := removeEntry(path); rerr != nil {
			err = fmt.Errorf("%w (unlink failed: %v)", err, rerr)
		}
		return nil, false, fmt.Errorf("cache: %s: %w", filepath.Base(path), err)
	}
	s.hits.Add(1)
	return e, true, nil
}

// removeEntry unlinks a store file idempotently. With several processes
// sharing one directory, two readers can detect the same corrupt entry
// and race on the unlink; the loser's ENOENT means the file is already
// gone — the desired state — not that anything failed.
func removeEntry(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Put stores the entry under its key, atomically: the bytes land in a
// temp file in the same directory and are renamed into place, so readers
// only ever see absent or complete entries.
func (s *Store) Put(e *Entry) error {
	if !e.Key.Valid() {
		return fmt.Errorf("cache: refusing to store incomplete key %+v", e.Key)
	}
	data, err := encodeEntry(e)
	if err != nil {
		return err
	}
	path := s.path(e.Key)
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		// CreateTemp makes the file 0600 — right for a private temp, wrong
		// for the published entry: a store shared over a common mount must
		// be readable by every collaborating process and user.
		werr = os.Chmod(tmp.Name(), 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing %s: %w", filepath.Base(path), werr)
	}
	s.puts.Add(1)
	return nil
}

// encodeEntry wraps the entry's JSON in the checksummed snapshot
// container.
func encodeEntry(e *Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("cache: encoding entry: %w", err)
	}
	enc := snapshot.NewEncoder(entryLabel)
	enc.Bytes(payload)
	return enc.Finish(), nil
}

// decodeEntry validates the container (frame, label, CRC) and unmarshals
// the payload. Every failure wraps ErrCorrupt.
func decodeEntry(data []byte) (*Entry, error) {
	d, err := snapshot.NewDecoder(data, entryLabel)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	payload := d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if e.Branches < 0 || e.Mispredicts < 0 || e.Instructions < 0 || e.Mispredicts > e.Branches {
		return nil, fmt.Errorf("%w: inconsistent counts in %+v", ErrCorrupt, e)
	}
	return &e, nil
}
