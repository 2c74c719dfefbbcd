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

// TestIndexEvaluatorMatchesReference checks the family's one index
// evaluator, through both its callers (Lookup and LookupBatch), against
// the formula it replaced.
func TestIndexEvaluatorMatchesReference(t *testing.T) {
	r := rng.New(41, 0)
	infos := make([]history.Info, 300)
	for i := range infos {
		infos[i] = history.Info{
			PC:   r.Uint64(),
			Hist: r.Uint64(),
			Path: [3]uint64{r.Uint64(), r.Uint64(), r.Uint64()},
		}
	}
	snaps := make([]predictor.Snapshot, len(infos))
	for _, cfg := range indexConfigs() {
		p := MustNew(cfg)
		p.LookupBatch(infos, snaps)
		for i := range infos {
			want := refIndex(cfg, &infos[i])
			if got := p.Lookup(&infos[i]).Idx; got != want {
				t.Fatalf("%s usePath=%v bimHist=%d: Lookup Idx %v, want %v",
					p.Name(), cfg.UsePath, cfg.Banks[BIM].HistLen, got, want)
			}
			if got := snaps[i].Idx; got != want {
				t.Fatalf("%s usePath=%v bimHist=%d: LookupBatch Idx %v, want %v",
					p.Name(), cfg.UsePath, cfg.Banks[BIM].HistLen, got, want)
			}
		}
	}
}
