// Package predictor defines the conditional-branch-predictor interface the
// whole library is built around, plus the indexing helpers shared by the
// concrete schemes in its subpackages.
//
// A Predictor is a pure consumer of the per-branch information vector
// (history.Info): it never maintains its own history. The front-end tracker
// (package frontend) decides what history the predictor sees — conventional
// ghist, block-compressed lghist, delayed lghist, with or without path
// information — which is exactly the separation the paper's Figure 7
// exploits to compare information vectors on a fixed prediction scheme.
package predictor

import (
	"ev8pred/internal/bitutil"
	"ev8pred/internal/frontend"
	"ev8pred/internal/history"
	"ev8pred/internal/snapshot"
)

// Predictor is a conditional branch predictor under trace-driven
// simulation with immediate update (the paper's methodology, §8.1.1).
type Predictor interface {
	// Predict returns the predicted direction for the branch described
	// by info (true = taken).
	Predict(info *history.Info) bool
	// Update trains the predictor with the architectural outcome. It is
	// called exactly once per branch, after Predict, with the same info.
	Update(info *history.Info, taken bool)
	// Name identifies the configuration in reports (e.g. "gshare-2Mbit").
	Name() string
	// SizeBits returns the predictor's total storage budget in bits.
	SizeBits() int
}

// Snapshotter is the optional checkpoint/resume contract: a predictor that
// can serialize its complete mutable state — counter arrays, meta and
// hysteresis tables, internal sequencing state, attribution counters — and
// restore it bit-identically later. sim.Checkpoint requires it; the
// simulator returns a typed error for predictors that do not implement it.
//
// Contract: after p2.RestoreState(p1.SnapshotState()) on an identically
// configured p2, every subsequent Predict/Update (or Lookup/UpdateWith)
// sequence must behave bit-identically on p1 and p2, including reported
// Stats. RestoreState must validate the payload against the receiver's
// configuration and leave the receiver UNCHANGED on any error — a failed
// restore must never produce a silently half-restored predictor. Errors
// wrap snapshot.ErrBadSnapshot.
type Snapshotter interface {
	Predictor
	// SnapshotState serializes all mutable state into a self-describing,
	// checksummed container (package snapshot).
	SnapshotState() []byte
	// RestoreState replaces all mutable state from a SnapshotState
	// payload produced by an identically-configured predictor.
	RestoreState(data []byte) error
}

// ConfigKeyer is the optional cache-key contract: a predictor whose full
// configuration (not state) can be rendered as a canonical string, so two
// predictors with equal keys are guaranteed to produce identical results
// on identical inputs. Predictors that cannot guarantee this (e.g. ones
// configured with opaque custom index functions) return "" and are simply
// never cached.
type ConfigKeyer interface {
	// ConfigKey returns the canonical configuration string, or "" when
	// the configuration cannot be canonicalized.
	ConfigKey() string
}

// MaxSnapshotBanks is the widest per-branch index set a Snapshot carries:
// the four logical banks of 2Bc-gskew. Schemes with fewer banks use a
// prefix of the array.
const MaxSnapshotBanks = 4

// Snapshot is the per-branch state a fused predictor computes once at
// prediction time and consumes again at update time: the bank indices, the
// per-bank prediction bits, and the combined verdicts. It corresponds to
// the information the EV8 pipeline computes at fetch and carries with the
// branch to retirement (§6 of the paper) — the index functions are never
// re-evaluated at update.
//
// Snapshot is a plain value (no pointers), so carrying it through a
// commit-delay queue costs no heap allocation.
type Snapshot struct {
	// Idx holds the computed bank indices, scheme-defined order (for
	// 2Bc-gskew: BIM, G0, G1, Meta).
	Idx [MaxSnapshotBanks]uint64
	// Preds packs the per-bank prediction bits: bit k is bank k's
	// direction bit at lookup time.
	Preds uint8
	// Final is the prediction returned to the front end.
	Final bool
	// Aux is a scheme-specific secondary verdict (for 2Bc-gskew: the
	// e-gskew majority vote, which the update policy needs).
	Aux bool
}

// Pred returns bank k's prediction bit.
func (s *Snapshot) Pred(k int) bool { return s.Preds>>uint(k)&1 == 1 }

// PackPreds packs up to four per-bank prediction bits (bank 0 first).
func PackPreds(bits ...bool) uint8 {
	var p uint8
	for k, b := range bits {
		if b {
			p |= 1 << uint(k)
		}
	}
	return p
}

// PairBytes is the wire size of one EncodePair record.
const PairBytes = 7*8 + MaxSnapshotBanks*8 + 3

// EncodePair appends one in-flight branch's carried state — the
// information vector it was predicted with and the Snapshot computed at
// fetch (§6) — in the layout the EV8 snapshot ring and sim.Checkpoint's
// pending updates share.
func EncodePair(e *snapshot.Encoder, info history.Info, s Snapshot) {
	e.Uint64(info.PC)
	e.Uint64(info.BlockPC)
	e.Uint64(info.Hist)
	for _, a := range info.Path {
		e.Uint64(a)
	}
	e.Int64(int64(info.Thread))
	for _, x := range s.Idx {
		e.Uint64(x)
	}
	e.Byte(s.Preds)
	e.Bool(s.Final)
	e.Bool(s.Aux)
}

// DecodePair reads one EncodePair record. A failed read surfaces from the
// decoder's Finish.
func DecodePair(d *snapshot.Decoder) (info history.Info, s Snapshot) {
	info.PC = d.Uint64()
	info.BlockPC = d.Uint64()
	info.Hist = d.Uint64()
	for k := range info.Path {
		info.Path[k] = d.Uint64()
	}
	info.Thread = int(d.Int64())
	for k := range s.Idx {
		s.Idx[k] = d.Uint64()
	}
	s.Preds = d.Byte()
	s.Final = d.Bool()
	s.Aux = d.Bool()
	return info, s
}

// FusedPredictor is the optional fast-path contract: a predictor that can
// compute a branch's full index set once (Lookup) and train later from the
// carried Snapshot (UpdateWith) without re-deriving anything from the
// information vector. The simulator's per-branch schedule (sim.BatchOff)
// detects this interface and resolves through it — including through the
// commit-delay queue — falling back to the plain Predict/Update pair
// otherwise. Every in-tree FusedPredictor is also a BatchPredictor, so a
// default run (sim.BatchAuto) takes the batch kernel instead.
//
// Contract: for every branch, UpdateWith(s, taken) with s = Lookup(info)
// must train exactly the entries Lookup read, and Predict(info) must equal
// Lookup(info).Final. UpdateWith reuses the carried indices but must apply
// the scheme's update policy against update-time counter state (re-reading
// direction bits is a few cheap bit-array reads), so that for predictors
// whose index functions are pure functions of info the fused and unfused
// paths are bit-identical at any update delay — under commit delay an
// aliased entry may have been trained by another branch in between.
type FusedPredictor interface {
	Predictor
	// Lookup computes the branch's index set and prediction once.
	Lookup(info *history.Info) Snapshot
	// UpdateWith trains from a Snapshot previously returned by Lookup.
	UpdateWith(s Snapshot, taken bool)
}

// BatchPredictor is the optional data-oriented extension of
// FusedPredictor: a predictor that can run a whole chunk of branches
// through each pipeline stage — index computation, table reads,
// combine, train — instead of one branch at a time. The simulator's
// stream engine resolves every eligible member through it, at any update
// delay; everything else runs per branch on the fused path.
// Schemes with sequencing state between branches (the EV8 §6.2
// sequencer) additionally implement BlockBatchObserver.
//
// The contract is exact scalar equivalence. For a chunk of n branches
// with outcomes taken (bit i of taken[i/64], lane i%64), the pair
//
//	LookupBatch(infos, snaps)
//	UpdateBatch(snaps, taken, finals)
//
// must leave the predictor in the same state, and fill finals with the
// same per-branch predictions, as the scalar sequence
//
//	for i := range infos {
//		s := Lookup(&infos[i])
//		finals bit i = s.Final
//		UpdateWith(s, outcome i)
//	}
//
// including attribution (stats.Instrumented) counts. Because a branch
// can recur within one chunk (a hot loop body aliases with itself),
// LookupBatch must restrict itself to the state-independent work: it
// fills only snaps[i].Idx (the pure index arithmetic over the chunk)
// and must not read or write counter state; the Preds/Final/Aux fields
// are left unset. UpdateBatch then resolves each branch in order —
// read, combine, train — against live counter state, which is exactly
// what the scalar interleaving sees at delay 0. Neither call may
// allocate: all scratch is caller-owned.
//
// Commit delay L (sim.Options.UpdateDelay) runs through the same
// in-order loop, lagged. The per-branch schedule interleaves Lookup(k) with the
// retirement UpdateWith(k−L); the index stage is pure and UpdateWith
// re-reads counter state anyway, so UpdateBatchLagged over a window —
// the pending entries still awaiting training, oldest first, followed by
// the chunk's newly staged ones — reproduces that interleaving exactly:
//
//	for k := pending; k < len(snaps); k++ {
//		snaps[k] = Lookup(...)            // Preds/Final/Aux from live counters
//		finals bit k−pending = snaps[k].Final
//		if k >= lag { UpdateWith(snaps[k−lag], outcome k−lag) }
//	}
//
// UpdateBatch is the lag-0 case, UpdateBatchLagged(snaps, 0, 0, ...).
type BatchPredictor interface {
	FusedPredictor
	// LookupBatch stages the pure index computation for a chunk:
	// snaps[i].Idx = the index set Lookup would derive from infos[i].
	// len(snaps) must equal len(infos). No counter state is touched.
	LookupBatch(infos []history.Info, snaps []Snapshot)
	// UpdateBatch resolves and trains the staged chunk in order. taken
	// carries the architectural outcomes packed 64 per word; UpdateBatch
	// packs the per-branch final predictions into finals the same way,
	// zeroing unused lanes of the last word. Both must hold
	// (len(snaps)+63)/64 words.
	UpdateBatch(snaps []Snapshot, taken, finals []uint64)
	// UpdateBatchLagged resolves a window under commit delay lag.
	// snaps[:pending] are earlier branches whose Lookup already ran
	// (complete snapshots); snaps[pending:] are new, with only Idx staged.
	// For each new entry k in order it reads the direction bits, fills
	// snaps[k].Preds/Final/Aux exactly as Lookup would and packs Final
	// into finals lane k−pending, then — when k >= lag — trains entry
	// k−lag through the UpdateWith path. taken holds the outcomes of the
	// whole window (lane i = snaps[i]); finals holds
	// (len(snaps)-pending+63)/64 words, unused lanes zeroed. Requires
	// pending <= lag, and pending == 0 when lag == 0.
	UpdateBatchLagged(snaps []Snapshot, pending, lag int, taken, finals []uint64)
}

// BlockBatchObserver is the batched block contract: the extension of
// BatchPredictor for predictors whose index functions observe the fetch-
// block stream (sim.BlockObserver — the EV8 §6.2 bank sequencer). Such a
// predictor's index set is NOT a pure function of the information vector:
// it also depends on sequencing state that advances on every fetch block,
// between branches. That state is still a deterministic function of the
// record stream, so the simulator walks a chunk into a block log
// (frontend.Tracker.Walk) and ObserveBlockLog replays it, capturing each
// branch's sequencing input at the branch's mark — the log length once
// the branch's record was walked, exactly the point the per-branch
// schedule calls Lookup (after any fetch blocks the record completed were
// observed) — and the index pass then runs over the whole chunk from the
// captured values.
//
// The contract extends BatchPredictor's exact-scalar-equivalence: for a
// chunk walked into log with information vectors infos,
//
//	ObserveBlockLog(log, infos, banks)
//	LookupBankedBatch(infos, banks, snaps)
//	UpdateBatch(snaps, taken, finals)
//
// must equal observing each block through ObserveBlock and interleaving
// the scalar Lookup/UpdateWith calls at the marks, at update delay 0, and
// with UpdateBatchLagged in place of UpdateBatch at any delay.
// ObserveBlockLog advances the sequencing state over every logged block
// and touches no counter state; banks[k] = StageBank(infos[k].BlockPC)
// read at mark k. LookupBankedBatch is the banked twin of LookupBatch: it
// fills only snaps[i].Idx, touches no counter state, and must not consult
// the live sequencer — every sequencer-dependent input is in banks.
// StageBank is a pure read of the sequencer (no state advances). None of
// the calls may allocate.
//
// The plain LookupBatch remains valid when no blocks advance inside the
// chunk (prerecorded-event replay): with the sequencer frozen, reading it
// live per branch is exactly what scalar replay does.
type BlockBatchObserver interface {
	BatchPredictor
	// ObserveBlockLog observes every block of a walked chunk's log in
	// order and captures banks[k] = StageBank(infos[k].BlockPC) when the
	// replay reaches log.Marks[k]. len(banks) and len(infos) must be at
	// least len(log.Marks).
	ObserveBlockLog(log *frontend.BlockLog, infos []history.Info, banks []uint8)
	// StageBank returns the bank-sequencing input the index functions
	// would read for a branch in the fetch block at blockPC, at the
	// current sequencing position.
	StageBank(blockPC uint64) uint8
	// LookupBankedBatch stages the pure index computation for a chunk
	// from pre-captured bank values: snaps[i].Idx = the index set Lookup
	// would derive from infos[i] when the sequencer maps infos[i].BlockPC
	// to banks[i]. len(banks) and len(snaps) must equal len(infos).
	LookupBankedBatch(infos []history.Info, banks []uint8, snaps []Snapshot)
}

// BatchWords returns the packed-bitset word count UpdateBatch requires
// for a chunk of n branches.
func BatchWords(n int) int { return (n + 63) / 64 }

// PCBits extracts n address bits from a branch PC, skipping the two
// always-zero alignment bits. Every PC-indexed table in the library uses
// this so that sequential instructions map to sequential entries.
func PCBits(pc uint64, n int) uint64 {
	return (pc >> 2) & bitutil.Mask(n)
}

// GshareIndex is the classical gshare hash: history folded to the index
// width XORed with PC bits.
func GshareIndex(pc, hist uint64, histLen, indexBits int) uint64 {
	return PCBits(pc, indexBits) ^ bitutil.FoldXOR(hist, histLen, indexBits)
}

// HistMask truncates a history word to histLen bits.
func HistMask(hist uint64, histLen int) uint64 {
	return hist & bitutil.Mask(histLen)
}
