package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ev8pred/internal/trace"
)

// goldenStreamHashes pins each canonical benchmark's stream, and one
// seed-perturbed gcc, to fixed bytes: the SHA-256 of every field of every
// record over goldenBudget instructions (streamHash). A change to the
// program builder or the interpreter that moves any draw, address or
// record changes these hashes; TestGeneratorDeterministic compares two
// runs of the same code and cannot see it.
var goldenStreamHashes = map[string]string{
	"compress": "930d2ebe82bbb43643d9bcfc4f04ad266353554938042c3740ea0dbd817cdcb4",
	"gcc":      "3d0e09d000e633bb8bff3774e4c0efcfd9148066bd05832d506d3b249d09df7c",
	"go":       "16cc352167fc674a1b7cec77e6c964445c5cad40c3436f76bd94d323cc5557d1",
	"ijpeg":    "a0d8ad5b373d7793e147f040b66983e72726bb47ae68a3846e24be59ca57d16c",
	"li":       "29b51ba3d92b2a09630cb3dc5820a59f68ec9201f08e1e243027f2ebf6f1d9f3",
	"m88ksim":  "db5614f77f8f1b17c39fb16996ee93b854502dfc306437f9c9bbd9b1f0dd8a1b",
	"perl":     "d24378d9cf21f06d889d4daf73d5a17c73eb8d7cca872423cdba4b3b7d432a06",
	"vortex":   "41723a5960e544214d85fbc5d4ee6d513cea8c88ff4af1547ef6539494fe6683",
	"gcc+seed": "a39a6be5c3e9bb131520162c9314a3712dd624431d74e4c9fcf8a82343f20c21",
}

const goldenBudget = 200_000

// goldenProfiles returns the profiles goldenStreamHashes names: the eight
// benchmarks under their own names and gcc with its seed advanced by one
// as "gcc+seed".
func goldenProfiles() map[string]Profile {
	out := map[string]Profile{}
	for _, p := range Benchmarks() {
		out[p.Name] = p
	}
	gcc := out["gcc"]
	gcc.Seed++
	out["gcc+seed"] = gcc
	return out
}

// streamHash drains src and hashes every field of every record in a
// fixed little-endian layout, prefixed by the record count.
func streamHash(t *testing.T, src trace.Source) string {
	t.Helper()
	recs := collect(t, src, 0)
	h := sha256.New()
	var buf [8 * 6]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(recs)))
	h.Write(buf[:8])
	for _, b := range recs {
		var taken uint64
		if b.Taken {
			taken = 1
		}
		binary.LittleEndian.PutUint64(buf[0:], b.PC)
		binary.LittleEndian.PutUint64(buf[8:], b.Target)
		binary.LittleEndian.PutUint64(buf[16:], taken)
		binary.LittleEndian.PutUint64(buf[24:], uint64(b.Gap))
		binary.LittleEndian.PutUint64(buf[32:], uint64(b.Kind))
		binary.LittleEndian.PutUint64(buf[40:], uint64(b.Thread))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamGolden holds every generator stream to the bytes in
// goldenStreamHashes.
func TestGeneratorStreamGolden(t *testing.T) {
	for name, prof := range goldenProfiles() {
		got := streamHash(t, MustNew(prof, goldenBudget))
		if want := goldenStreamHashes[name]; got != want {
			t.Errorf("%s: stream hash %s, want %s", name, got, want)
		}
	}
}
