// Package yags implements the YAGS predictor of Eden and Mudge [4]: a
// bimodal choice table plus two partially tagged "direction caches". When
// the bimodal table says taken, the not-taken cache is searched for an
// exception entry (and vice versa); a tag hit overrides the bimodal
// prediction. The paper's §8.2 comparison uses 6-bit tags, and notes that
// reading and checking 16 tags in a cycle and a half made YAGS
// unattractive for the EV8 despite its accuracy.
package yags

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/counter"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
)

// TagBits is the direction-cache tag width used by the paper.
const TagBits = 6

// YAGS is a bimodal choice table with two tagged direction caches.
type YAGS struct {
	choice     *counter.Array
	dirT       *cache // exceptions to "choice says not-taken"
	dirNT      *cache // exceptions to "choice says taken"
	choiceBits int
	cacheBits  int
	histLen    int
	name       string
}

// cache is a direct-mapped, partially tagged counter cache.
type cache struct {
	ctr  *counter.Array
	tags []uint8
}

func newCache(entries int, init uint8) *cache {
	c := &cache{
		ctr:  counter.NewArray(entries, init),
		tags: make([]uint8, entries),
	}
	for i := range c.tags {
		c.tags[i] = 0xff // no tag matches when cold (tags are 6-bit)
	}
	return c
}

// New returns a YAGS predictor with choiceEntries bimodal counters and
// cacheEntries entries in each direction cache.
func New(choiceEntries, cacheEntries, histLen int) (*YAGS, error) {
	if choiceEntries <= 0 || !bitutil.IsPow2(uint64(choiceEntries)) {
		return nil, fmt.Errorf("yags: choice entries %d not a positive power of two", choiceEntries)
	}
	if cacheEntries <= 0 || !bitutil.IsPow2(uint64(cacheEntries)) {
		return nil, fmt.Errorf("yags: cache entries %d not a positive power of two", cacheEntries)
	}
	if histLen < 0 || histLen > history.MaxLen {
		return nil, fmt.Errorf("yags: history length %d out of range", histLen)
	}
	y := &YAGS{
		choice:     counter.NewArray(choiceEntries, counter.WeakNotTaken),
		dirT:       newCache(cacheEntries, counter.WeakTaken),
		dirNT:      newCache(cacheEntries, counter.WeakNotTaken),
		choiceBits: bitutil.Log2(uint64(choiceEntries)),
		cacheBits:  bitutil.Log2(uint64(cacheEntries)),
		histLen:    histLen,
		name: fmt.Sprintf("yags-%dK+2x%dK-h%d",
			choiceEntries/1024, cacheEntries/1024, histLen),
	}
	return y, nil
}

// MustNew is New but panics on error.
func MustNew(choiceEntries, cacheEntries, histLen int) *YAGS {
	y, err := New(choiceEntries, cacheEntries, histLen)
	if err != nil {
		panic(err)
	}
	return y
}

func (y *YAGS) cacheIndex(info *history.Info) uint64 {
	return predictor.GshareIndex(info.PC, info.Hist, y.histLen, y.cacheBits)
}

func (y *YAGS) tag(info *history.Info) uint8 {
	return uint8(predictor.PCBits(info.PC, TagBits))
}

// lookup returns the final prediction plus the intermediate state needed
// by the update rule.
func (y *YAGS) lookup(info *history.Info) (pred, choiceTaken, cacheHit, cachePred bool) {
	choiceTaken = y.choice.Taken(predictor.PCBits(info.PC, y.choiceBits))
	ci := y.cacheIndex(info)
	tag := y.tag(info)
	c := y.dirNT
	if !choiceTaken {
		c = y.dirT
	}
	if c.tags[ci] == tag {
		cacheHit = true
		cachePred = c.ctr.Taken(ci)
		return cachePred, choiceTaken, cacheHit, cachePred
	}
	return choiceTaken, choiceTaken, false, false
}

// Predict implements predictor.Predictor.
func (y *YAGS) Predict(info *history.Info) bool {
	pred, _, _, _ := y.lookup(info)
	return pred
}

// Update implements predictor.Predictor with the YAGS policy:
//   - the searched cache is updated on a hit, and allocated when the
//     bimodal choice mispredicted;
//   - the choice table is updated toward the outcome except when it was
//     wrong but the cache supplied the correct prediction.
func (y *YAGS) Update(info *history.Info, taken bool) {
	_, choiceTaken, cacheHit, cachePred := y.lookup(info)
	ci := y.cacheIndex(info)
	tag := y.tag(info)
	c := y.dirNT
	if !choiceTaken {
		c = y.dirT
	}
	if cacheHit {
		c.ctr.Update(ci, taken)
	} else if choiceTaken != taken {
		// Allocate an exception entry, biased toward the outcome.
		c.tags[ci] = tag
		if taken {
			c.ctr.Set(ci, counter.WeakTaken)
		} else {
			c.ctr.Set(ci, counter.WeakNotTaken)
		}
	}
	if !(choiceTaken != taken && cacheHit && cachePred == taken) {
		y.choice.Update(predictor.PCBits(info.PC, y.choiceBits), taken)
	}
}

// Name implements predictor.Predictor.
func (y *YAGS) Name() string { return y.name }

// SizeBits implements predictor.Predictor: choice counters plus counter
// and tag bits of both caches.
func (y *YAGS) SizeBits() int {
	cache := y.dirT.ctr.Len() * (2 + TagBits)
	return 2*y.choice.Len() + 2*cache
}

var _ predictor.Predictor = (*YAGS)(nil)
