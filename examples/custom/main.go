// Custom: implement your own predictor against the library's Predictor
// interface and benchmark it in the same harness as the built-in schemes.
//
// The toy scheme here is a "gshare-agree": a gshare-indexed agreement
// table over a per-PC bias bit — enough to show the full surface a custom
// predictor implements (Predict/Update over the information vector, plus
// the Name/SizeBits plumbing the reporting uses).
package main

import (
	"fmt"
	"log"
	"math/bits"

	"ev8pred"
)

// gshareAgree predicts whether a branch will agree with its first-observed
// direction, indexed by history XOR PC.
type gshareAgree struct {
	bias    []int8 // -1 unset, 0 not-taken, 1 taken
	agree   []uint8
	histLen int
	idxBits int
	mask    uint64
}

func newGshareAgree(entries, histLen int) *gshareAgree {
	g := &gshareAgree{
		bias:    make([]int8, entries),
		agree:   make([]uint8, entries),
		histLen: histLen,
		idxBits: bits.TrailingZeros64(uint64(entries)),
		mask:    uint64(entries - 1),
	}
	for i := range g.bias {
		g.bias[i] = -1
		g.agree[i] = 2 // weakly agree
	}
	return g
}

func (g *gshareAgree) index(info *ev8pred.Info) uint64 {
	h := info.Hist & (1<<uint(g.histLen) - 1)
	var folded uint64
	for h != 0 {
		folded ^= h & g.mask
		h >>= uint(g.idxBits)
	}
	return (info.PC>>2 ^ folded) & g.mask
}

func (g *gshareAgree) Predict(info *ev8pred.Info) bool {
	i := g.index(info)
	b := g.bias[info.PC>>2&g.mask]
	agrees := g.agree[i] >= 2
	if b < 0 {
		return false // cold: predict not-taken, like the library's tables
	}
	return (b == 1) == agrees
}

func (g *gshareAgree) Update(info *ev8pred.Info, taken bool) {
	bi := info.PC >> 2 & g.mask
	if g.bias[bi] < 0 {
		if taken {
			g.bias[bi] = 1
		} else {
			g.bias[bi] = 0
		}
	}
	agreed := (g.bias[bi] == 1) == taken
	i := g.index(info)
	if agreed && g.agree[i] < 3 {
		g.agree[i]++
	} else if !agreed && g.agree[i] > 0 {
		g.agree[i]--
	}
}

func (g *gshareAgree) Name() string { return "custom-gshare-agree" }
func (g *gshareAgree) SizeBits() int {
	return len(g.bias)*2 + len(g.agree)*2
}

func main() {
	prof, err := ev8pred.BenchmarkByName("perl")
	if err != nil {
		log.Fatal(err)
	}
	contenders := []ev8pred.Predictor{
		newGshareAgree(64*1024, 14),
		mustBuild(ev8pred.NewGshare(64*1024, 14)),
		ev8pred.NewEV8(),
	}
	for _, p := range contenders {
		mode := ev8pred.ModeGhist()
		if p.Name() == "EV8-352Kbit" {
			mode = ev8pred.ModeEV8()
		}
		r, err := ev8pred.RunBenchmark(p, prof, 2_000_000, ev8pred.Options{Mode: mode})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %4d Kbits  %6.2f misp/KI  %.2f%%\n",
			p.Name(), p.SizeBits()/1024, r.MispKI(), 100*r.Accuracy())
	}
}

func mustBuild(p ev8pred.Predictor, err error) ev8pred.Predictor {
	if err != nil {
		log.Fatal(err)
	}
	return p
}
