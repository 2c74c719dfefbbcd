package skew

import (
	"fmt"
	"sync"
)

// Linear is the byte-sliced form of a GF(2)-linear map from three 64-bit
// input words to four indices of up to 32 bits each. Masks, shifts,
// XOR-folds and the H/Hinv steps are all linear, so every index function
// of the skewed predictors is such a map, and
//
//	lanes = ⊕_w ⊕_k t[w][k][byte k of word w]
//
// with index b in 32-bit lane b of the two-word entries (0 and 1 in the
// first word, 2 and 3 in the second). A word has one table per byte up to
// its highest bit with a non-zero image, so an evaluation costs one
// 16-byte load per table however many H/Hinv steps the functions take.
// A Linear is immutable.
type Linear struct {
	t [3][][256][2]uint64
}

// Index writes the four indices of the input words into idx.
func (l *Linear) Index(x0, x1, x2 uint64, idx *[4]uint64) {
	lo0, hi0 := xorSlices(l.t[0], x0)
	lo1, hi1 := xorSlices(l.t[1], x1)
	lo2, hi2 := xorSlices(l.t[2], x2)
	lo, hi := lo0^lo1^lo2, hi0^hi1^hi2
	idx[0], idx[1], idx[2], idx[3] = lo&laneMask, lo>>32, hi&laneMask, hi>>32
}

const laneMask = 1<<32 - 1

// xorSlices folds one input word through its tables.
func xorSlices(t [][256][2]uint64, x uint64) (lo, hi uint64) {
	for k := range t {
		e := &t[k][uint8(x)]
		lo, hi, x = lo^e[0], hi^e[1], x>>8
	}
	return lo, hi
}

// linears shares tables between maps with equal keys, such as a sweep's
// cells that differ only in workload. When full it is emptied, which
// costs a rebuild, never a different index.
var linears = struct {
	sync.Mutex
	m map[any]*Linear
}{m: map[any]*Linear{}}

const maxLinears = 32

// NewLinear returns the tables of the GF(2)-linear map whose four indices
// of the input with only bit i of word w set are img(w, i). key names the
// map: it must be comparable and determine every image, and maps with
// equal keys share one set of tables. It fails if an image does not fit
// in 32 bits.
func NewLinear(key any, img func(w, i int) [4]uint64) (*Linear, error) {
	linears.Lock()
	defer linears.Unlock()
	if l := linears.m[key]; l != nil {
		return l, nil
	}
	var ims [3][64][2]uint64
	for w := range ims {
		for i := range ims[w] {
			for b, v := range img(w, i) {
				if v > laneMask {
					return nil, fmt.Errorf("skew: index %d image %#x of word %d bit %d is wider than 32 bits", b, v, w, i)
				}
				ims[w][i][b/2] |= v << (32 * (b % 2))
			}
		}
	}
	l := &Linear{}
	for w := range ims {
		n := len(ims[w])
		for n > 0 && ims[w][n-1] == [2]uint64{} {
			n--
		}
		l.t[w] = make([][256][2]uint64, (n+7)/8)
		for k := range l.t[w] {
			FillSlice(&l.t[w][k], func(i int) [2]uint64 { return ims[w][8*k+i] },
				func(a, b [2]uint64) [2]uint64 { return [2]uint64{a[0] ^ b[0], a[1] ^ b[1]} })
		}
	}
	if len(linears.m) >= maxLinears {
		clear(linears.m)
	}
	linears.m[key] = l
	return l, nil
}

// FillSlice sets t[v] to the XOR (xor) of img(i) over the set bits i of
// v: the table of one input byte of a GF(2)-linear map, from the images
// of the byte's unit bits. t[0] must hold xor's identity. It builds every
// byte-sliced index table: Linear's and the EV8's §7 tables.
func FillSlice[E any](t *[256]E, img func(i int) E, xor func(a, b E) E) {
	for i := 0; i < 8; i++ {
		bit := img(i)
		for v := 0; v < 1<<i; v++ {
			t[v|1<<i] = xor(t[v], bit)
		}
	}
}
