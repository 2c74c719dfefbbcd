package ev8

import (
	"fmt"

	"ev8pred/internal/bitutil"
	"ev8pred/internal/core"
	"ev8pred/internal/history"
	"ev8pred/internal/skew"
)

// This file implements the §7 index functions. Physical structure of each
// index (paper notation, i0 = least significant):
//
//	(i1,i0)              bank number            — §6.2 computation
//	(i4,i3,i2)           word offset (unshuffle) — wide XOR trees allowed
//	(i10,...,i5)         wordline               — UNHASHED, shared by all
//	                                              four tables
//	(i15,...,i11)        column                 — each bit one 2-input XOR
//	                                              (G0/G1/Meta; BIM has
//	                                              (i13,i12,i11))
//
// The shared wordline is (i10..i5) = (h3,h2,h1,h0,a8,a7) (§7.3). BIM's
// remaining bits use path information from the last fetch block Z (§7.4).
//
// Where the published text of the paper is damaged (the G0 column
// equations and parts of the unshuffle formulas lost their operands to
// typesetting), the functions below reconstruct them under the stated
// constraints and the three §7.5 design principles:
//
//  1. uniform column distribution — prefer history bits over address bits;
//  2. one-or-two-bit history differences must not collide in any table —
//     every history bit of a table's window appears in its wordline,
//     column, or unshuffle bits;
//  3. conflicts should not repeat across tables — the three tables XOR
//     different pairs of history bits in their column functions.
//
// Reconstructed terms are marked "(reconstructed)" below.

// xorTree is one index bit: the XOR (parity) of selected PC bits (aMask,
// bit k = the paper's a_k), history bits (hMask, bit k = h_k), and bits of
// the previous fetch blocks Z and Y (zMask/yMask over Path addresses).
type xorTree struct {
	aMask uint64
	hMask uint64
	zMask uint64
	yMask uint64
}

// eval computes the bit from the information-vector components: the branch
// PC, the (per-table masked) history, and the previous-block addresses Z
// and Y. Scalar parameters keep the per-branch path allocation-free — a
// *history.Info passed through here used to escape to the heap four times
// per index-set evaluation.
func (x xorTree) eval(pc, hist, z, y uint64) uint64 {
	v := bitutil.ParityMasked(pc, x.aMask) ^
		bitutil.ParityMasked(hist, x.hMask)
	if x.zMask != 0 {
		v ^= bitutil.ParityMasked(z, x.zMask)
	}
	if x.yMask != 0 {
		v ^= bitutil.ParityMasked(y, x.yMask)
	}
	return v
}

// bits builds a mask from bit positions, e.g. a(11, 5) = a11 XOR a5.
func bits(ps ...int) uint64 {
	var m uint64
	for _, p := range ps {
		m |= 1 << uint(p)
	}
	return m
}

// tableIndex describes one logical table's full index function.
type tableIndex struct {
	column    []xorTree  // most significant first: i15, i14, ... (or i13.. for BIM)
	unshuffle [3]xorTree // i4, i3, i2
}

// evalIndex assembles the table index from bank, unshuffle, wordline and
// column fields.
func (t *tableIndex) evalIndex(pc, hist, z, y uint64, bank uint8, wordline uint64) uint64 {
	idx := uint64(bank & 3)
	// Unshuffle: (i4,i3,i2).
	off := t.unshuffle[0].eval(pc, hist, z, y)<<2 |
		t.unshuffle[1].eval(pc, hist, z, y)<<1 |
		t.unshuffle[2].eval(pc, hist, z, y)
	idx |= off << 2
	idx |= wordline << 5
	col := uint64(0)
	for _, x := range t.column {
		col = col<<1 | x.eval(pc, hist, z, y)
	}
	idx |= col << 11
	return idx
}

// wordlineEV8 computes the shared unhashed wordline (i10..i5) =
// (h3,h2,h1,h0,a8,a7) (§7.3). The bits cannot be hashed: decode is on the
// critical path.
func wordlineEV8(pc, hist uint64) uint64 {
	return bitutil.Field(pc, 7, 2) | bitutil.Field(hist, 0, 4)<<2
}

// wordlineAddrOnly is the Figure 9 "address only" variant: six unhashed PC
// bits (a12..a7).
func wordlineAddrOnly(pc uint64) uint64 {
	return bitutil.Field(pc, 7, 6)
}

// The four tables' index functions (§7.4–7.5).

// bimIndex: BIM is a 16K-entry table (14 index bits: 3 column bits
// i13..i11). Extra bits (§7.4): (i13,i12,i11,i4,i3,i2) =
// (a11, a10^z5, a9^z6, a4, a3^z5, a2^z6) — the z terms are
// (reconstructed); the paper's text shows (a11, ?, ?, a4, ?, ?) and states
// that path information from block Z is used.
var bimIndex = tableIndex{
	column: []xorTree{
		{aMask: bits(11)},                 // i13 = a11
		{aMask: bits(10), zMask: bits(5)}, // i12 = a10^z5 (reconstructed)
		{aMask: bits(9), zMask: bits(6)},  // i11 = a9^z6  (reconstructed)
	},
	unshuffle: [3]xorTree{
		{aMask: bits(4)},                 // i4 = a4
		{aMask: bits(3), zMask: bits(5)}, // i3 = a3^z5 (reconstructed)
		{aMask: bits(2), zMask: bits(6)}, // i2 = a2^z6 (reconstructed)
	},
}

// g0Index: history length 13 (h0..h12). G0 and Meta share i15 and i14
// (§7.5), so G0's (i15,i14) equal Meta's (h7^h11, h8^h12). The remaining
// column bits and the i4 unshuffle tree are (reconstructed) under the
// §7.5 principles; i3 and i2 are the paper's published trees.
var g0Index = tableIndex{
	column: []xorTree{
		{hMask: bits(7, 11)},              // i15 = h7^h11 (shared with Meta)
		{hMask: bits(8, 12)},              // i14 = h8^h12 (shared with Meta)
		{hMask: bits(4, 10)},              // i13 = h4^h10 (reconstructed)
		{hMask: bits(5, 12)},              // i12 = h5^h12 (reconstructed)
		{aMask: bits(10), hMask: bits(6)}, // i11 = a10^h6 (reconstructed)
	},
	unshuffle: [3]xorTree{
		{aMask: bits(4, 12), hMask: bits(5, 8, 11), zMask: bits(5)},  // i4 (reconstructed)
		{aMask: bits(11, 5), hMask: bits(9, 10, 12), zMask: bits(6)}, // i3 = a11^h9^h10^h12^z6^a5
		{aMask: bits(2, 14, 10, 6), hMask: bits(6, 4, 7)},            // i2 = a2^a14^a10^h6^h4^h7^a6
	},
}

// g1Index: history length 21 (h0..h20). Column and unshuffle trees are the
// paper's published §7.5 equations.
var g1Index = tableIndex{
	column: []xorTree{
		{hMask: bits(19, 12)}, // i15 = h19^h12
		{hMask: bits(18, 11)}, // i14 = h18^h11
		{hMask: bits(17, 10)}, // i13 = h17^h10
		{hMask: bits(16, 4)},  // i12 = h16^h4
		{hMask: bits(15, 20)}, // i11 = h15^h20
	},
	unshuffle: [3]xorTree{
		{hMask: bits(9, 14, 15, 16), zMask: bits(6)}, // i4 = h9^h14^h15^h16^z6
		{aMask: bits(4, 11, 14, 6, 3, 10, 13),
			hMask: bits(4, 6, 5, 11, 13, 18, 19, 20), zMask: bits(5)}, // i3
		{aMask: bits(2, 5, 9),
			hMask: bits(4, 8, 7, 10, 12, 13, 14, 17)}, // i2
	},
}

// metaIndex: history length 15 (h0..h14). Column and unshuffle trees are
// the paper's published §7.5 equations.
var metaIndex = tableIndex{
	column: []xorTree{
		{hMask: bits(7, 11)},             // i15 = h7^h11
		{hMask: bits(8, 12)},             // i14 = h8^h12
		{hMask: bits(5, 13)},             // i13 = h5^h13
		{hMask: bits(4, 9)},              // i12 = h4^h9
		{aMask: bits(9), hMask: bits(6)}, // i11 = a9^h6
	},
	unshuffle: [3]xorTree{
		{aMask: bits(4, 10, 5), hMask: bits(7, 10, 14, 13), zMask: bits(5)},    // i4
		{aMask: bits(3, 12, 14, 6), hMask: bits(4, 6, 8, 14)},                  // i3
		{aMask: bits(2, 9, 11, 13), hMask: bits(5, 9, 11, 12), zMask: bits(6)}, // i2
	},
}

// IndexOptions selects index-function variants for the Figure 9 ablation.
type IndexOptions struct {
	// AddressOnlyWordline replaces the (h3..h0,a8,a7) shared wordline
	// with six PC bits (a12..a7) — the "address only" series of Fig. 9.
	AddressOnlyWordline bool
}

// tables maps each logical bank to its index-function description.
var tables = [core.NumBanks]*tableIndex{
	core.BIM:  &bimIndex,
	core.G0:   &g0Index,
	core.G1:   &g1Index,
	core.Meta: &metaIndex,
}

// Every §7 index bit is an XOR tree, so the four indices are one GF(2)-
// linear map of the branch's PC, its history (each table masked to its
// own length), the Z-block bits z6,z5 and the bank number. The simulator
// evaluates that map from byte-sliced tables built from the trees above:
// the indices packed one per 16-bit lane, table b in lane b, are
//
//	q = ⊕_k pc[k][byte k of PC>>2] ⊕ ⊕_k hist[k][byte k of hist] ⊕ z[(z6,z5)] ⊕ bank·bankLanes
//
// so a lookup costs six loads and XORs however wide the trees are. The
// trees stay the specification: newLinearTables derives the tables from
// evalIndex and refuses trees that read a bit outside the slices.
const (
	pcSlices   = 2 // PC bits a2..a17
	histSlices = 3 // history bits h0..h23
	laneBits   = 16
	laneMask   = 1<<laneBits - 1
	// bankLanes broadcasts the two bank bits, (i1,i0) of every index,
	// to all four lanes.
	bankLanes = 0x0001_0001_0001_0001
)

// The input bits the tables cover.
const (
	pcCovered   = (1<<(8*pcSlices) - 1) << 2
	histCovered = 1<<(8*histSlices) - 1
	zCovered    = 3 << 5
)

// linearIndex is the byte-sliced form of one wordline variant's index set.
type linearIndex struct {
	pc   [pcSlices][256]uint64
	hist [histSlices][256]uint64
	z    [4]uint64
}

// linearTables holds the tables of the two wordline variants (see
// IndexOptions.linear).
var linearTables = newLinearTables()

// quad returns the four table indices packed in 16-bit lanes.
func (l *linearIndex) quad(pc, hist, z uint64, bank uint8) uint64 {
	a := pc >> 2
	return l.pc[0][uint8(a)] ^ l.pc[1][uint8(a>>8)] ^
		l.hist[0][uint8(hist)] ^ l.hist[1][uint8(hist>>8)] ^ l.hist[2][uint8(hist>>16)] ^
		l.z[z>>5&3] ^ uint64(bank&3)*bankLanes
}

// index writes the four table indices of a branch in the block the
// sequencer assigned bank. It stores through idx rather than returning
// the array: a returned array is copied with 16-byte loads, which cannot
// forward from its 8-byte stores.
func (l *linearIndex) index(info *history.Info, bank uint8, idx *[core.NumBanks]uint64) {
	q := l.quad(info.PC, info.Hist, info.Path[0], bank)
	idx[0] = q & laneMask
	idx[1] = q >> laneBits & laneMask
	idx[2] = q >> (2 * laneBits) & laneMask
	idx[3] = q >> (3 * laneBits)
}

// treeQuad evaluates the four index functions from the trees (bank 0),
// with the per-table history masks of the EV8 geometry applied, packed as
// linearIndex.quad packs them.
func treeQuad(ts *[core.NumBanks]*tableIndex, addrWL bool, pc, hist, z, y uint64) uint64 {
	var q uint64
	for b := core.BIM; b < core.NumBanks; b++ {
		h := hist & histMasks[b]
		wl := wordlineAddrOnly(pc)
		if !addrWL {
			wl = wordlineEV8(pc, h)
		}
		q |= ts[b].evalIndex(pc, h, z, y, 0, wl) << (laneBits * uint(b))
	}
	return q
}

// histMasks are the per-table history masks of the EV8 geometry (the
// core configuration New always builds).
var histMasks = func() (m [core.NumBanks]uint64) {
	cfg := core.ConfigEV8Size()
	for b := core.BIM; b < core.NumBanks; b++ {
		m[b] = bitutil.Mask(cfg.Banks[b].HistLen)
	}
	return m
}()

// newLinearTables builds both wordline variants' tables from the trees,
// by linearity: each byte's entry is the XOR of its set bits' images.
func newLinearTables() (ls [2]*linearIndex) {
	xor := func(a, b uint64) uint64 { return a ^ b }
	if err := checkSlices(&tables); err != nil {
		panic(err)
	}
	for v, addrWL := range []bool{false, true} {
		l := &linearIndex{}
		for k := range l.pc {
			skew.FillSlice(&l.pc[k], func(i int) uint64 { return treeQuad(&tables, addrWL, 1<<(2+8*k+i), 0, 0, 0) }, xor)
		}
		for k := range l.hist {
			skew.FillSlice(&l.hist[k], func(i int) uint64 { return treeQuad(&tables, addrWL, 0, 1<<(8*k+i), 0, 0) }, xor)
		}
		for z := range l.z {
			l.z[z] = treeQuad(&tables, addrWL, 0, 0, uint64(z)<<5, 0)
		}
		ls[v] = l
	}
	return ls
}

// checkSlices reports any input bit a tree or a wordline reads outside the
// bits the linear tables cover, so a tree edit that reaches further fails
// at start-up instead of being dropped from the index.
func checkSlices(ts *[core.NumBanks]*tableIndex) error {
	for b, t := range ts {
		trees := append(append([]xorTree(nil), t.column...), t.unshuffle[:]...)
		for _, x := range trees {
			if x.aMask&^pcCovered != 0 || x.hMask&^histCovered != 0 ||
				x.zMask&^zCovered != 0 || x.yMask != 0 {
				return fmt.Errorf("ev8: table %d tree %+v reads bits outside the linear index slices", b, x)
			}
		}
	}
	for i := 0; i < 64; i++ {
		bit := uint64(1) << i
		if bit&pcCovered == 0 && (wordlineEV8(bit, 0) != 0 || wordlineAddrOnly(bit) != 0) {
			return fmt.Errorf("ev8: wordline reads PC bit %d outside the linear index slices", i)
		}
		if bit&histCovered == 0 && wordlineEV8(0, bit) != 0 {
			return fmt.Errorf("ev8: wordline reads history bit %d outside the linear index slices", i)
		}
	}
	return nil
}

// indexSet implements the EV8 hardware index functions (core.IndexSet),
// with bank numbers supplied by the sequencer. A struct rather than a
// capturing closure: the per-branch evaluation performs no heap
// allocation.
type indexSet struct {
	seq *bankSequencer
	lin *linearIndex
}

// index computes the four table indices for an information vector.
func (ix *indexSet) index(info *history.Info) (idx [core.NumBanks]uint64) {
	ix.lin.index(info, ix.seq.bankFor(info.BlockPC), &idx)
	return idx
}

// newIndexSet builds the core.IndexSet over one variant's tables.
func newIndexSet(seq *bankSequencer, lin *linearIndex) core.IndexSet {
	ix := &indexSet{seq: seq, lin: lin}
	return ix.index
}

// linear returns the variant's linear index tables.
func (o IndexOptions) linear() *linearIndex {
	if o.AddressOnlyWordline {
		return linearTables[1]
	}
	return linearTables[0]
}
