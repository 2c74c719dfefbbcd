package core

import (
	"testing"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/history"
	"ev8pred/internal/predictor"
	"ev8pred/internal/rng"
	"ev8pred/internal/skew"
)

// refIndex is the default index formula written out from its parts: PC
// bits, the folded BIM history, the §5.2 path hash, and the skewing
// functions evaluated by their primitive H/Hinv steps (skew.Func.Index).
// The family's evaluator must reproduce it bit for bit.
func refIndex(cfg Config, info *history.Info) [NumBanks]uint64 {
	var bits [NumBanks]int
	for b := BIM; b < NumBanks; b++ {
		bits[b] = bitutil.Log2(uint64(cfg.Banks[b].Entries))
	}
	var pathHash uint64
	if cfg.UsePath {
		pathHash = bitutil.Field(info.Path[0], 5, 4) ^
			bitutil.Field(info.Path[1], 5, 4)<<2 ^
			bitutil.Field(info.Path[2], 5, 4)<<4
	}
	var idx [NumBanks]uint64
	idx[BIM] = predictor.PCBits(info.PC, bits[BIM])
	if h := cfg.Banks[BIM].HistLen; h > 0 {
		idx[BIM] ^= bitutil.FoldXOR(info.Hist, h, bits[BIM])
	}
	if cfg.UsePath {
		idx[BIM] ^= pathHash & bitutil.Mask(bits[BIM])
	}
	for b := G0; b <= Meta; b++ {
		h := cfg.Banks[b].HistLen
		v := predictor.PCBits(info.PC, bits[b]) | predictor.HistMask(info.Hist, h)<<uint(bits[b])
		v ^= pathHash << uint(bits[b]/2)
		idx[b] = skew.MustFamily(bits[b], 3)[int(b-G0)].Index(v, bits[b]+h)
	}
	return idx
}

// indexConfigs is every preset × UsePath × a BIM history length of zero
// and above zero, plus a configuration whose vectors run past 64 bits.
func indexConfigs() []Config {
	long := Config512K()
	long.Banks[G1].HistLen = 64
	long.Banks[BIM].HistLen = 40
	long.Name = "long"
	var cfgs []Config
	for _, base := range []Config{Config256K(), Config512K(), Config512KShortHist(), Config256KShortHist(),
		Config512KLghist(), ConfigSmallBIM(), ConfigEV8Size(), Config4M(), long} {
		for _, usePath := range []bool{false, true} {
			for _, bimHist := range []int{base.Banks[BIM].HistLen, 0, 7} {
				c := base
				c.UsePath = usePath
				c.Banks[BIM].HistLen = bimHist
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

// indexInfos returns the vectors the index tests evaluate: every unit
// input bit of PC, history and each path address, then n random vectors.
func indexInfos(seed uint64, n int) []history.Info {
	var infos []history.Info
	for i := 0; i < 64; i++ {
		bit := uint64(1) << i
		infos = append(infos, history.Info{PC: bit}, history.Info{Hist: bit},
			history.Info{Path: [3]uint64{bit, 0, 0}}, history.Info{Path: [3]uint64{0, bit, 0}},
			history.Info{Path: [3]uint64{0, 0, bit}})
	}
	r := rng.New(seed, 0)
	for i := 0; i < n; i++ {
		infos = append(infos, history.Info{
			PC:   r.Uint64(),
			Hist: r.Uint64(),
			Path: [3]uint64{r.Uint64(), r.Uint64(), r.Uint64()},
		})
	}
	return infos
}

// checkIndexes compares the family's one index evaluator, through both
// its callers (Lookup and LookupBatch), with refIndex on infos.
func checkIndexes(t *testing.T, cfg Config, infos []history.Info) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]predictor.Snapshot, len(infos))
	p.LookupBatch(infos, snaps)
	for i := range infos {
		want := refIndex(cfg, &infos[i])
		if got := p.Lookup(&infos[i]).Idx; got != want {
			t.Fatalf("%s usePath=%v bimHist=%d: Lookup Idx %v of %+v, want %v",
				p.Name(), cfg.UsePath, cfg.Banks[BIM].HistLen, got, infos[i], want)
		}
		if got := snaps[i].Idx; got != want {
			t.Fatalf("%s usePath=%v bimHist=%d: LookupBatch Idx %v of %+v, want %v",
				p.Name(), cfg.UsePath, cfg.Banks[BIM].HistLen, got, infos[i], want)
		}
	}
}

// TestIndexEvaluatorMatchesReference checks the linear index tables of
// every configuration in indexConfigs against the formula they are built
// from, on every unit input bit and 54 × 800 random vectors.
func TestIndexEvaluatorMatchesReference(t *testing.T) {
	infos := indexInfos(41, 800)
	for _, cfg := range indexConfigs() {
		checkIndexes(t, cfg, infos)
	}
}

// TestLinearIndexShared: predictors with equal index parameters share one
// set of tables whatever their other fields; different ones do not.
func TestLinearIndexShared(t *testing.T) {
	a := Config512K()
	b := a
	b.Name, b.PartialUpdate, b.Banks[G0].HystEntries = "other", false, a.Banks[G0].Entries/2
	c := a
	c.UsePath = true
	pa, pb, pc := MustNew(a), MustNew(b), MustNew(c)
	if pa.li.lin != pb.li.lin {
		t.Error("equal index parameters built two table sets")
	}
	if pa.li.lin == pc.li.lin {
		t.Error("UsePath on and off share tables")
	}
}

// TestLinearIndexRejectsWideBanks: banks are limited to 32 index bits,
// the width of a table lane; the check comes before any allocation.
func TestLinearIndexRejectsWideBanks(t *testing.T) {
	for b := BIM; b < NumBanks; b++ {
		c := Config512K()
		c.Banks[b].Entries = 1 << 33
		if _, err := New(c); err == nil {
			t.Errorf("%v with 2^33 entries accepted", b)
		}
	}
}
