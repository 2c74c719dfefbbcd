package history

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRegisterShift(t *testing.T) {
	var r Register
	r.Shift(true)
	r.Shift(false)
	r.Shift(true)
	// Most recent bit is bit 0: sequence T,NT,T -> 0b101.
	if r.Value() != 0b101 {
		t.Errorf("Value = %#b, want 101", r.Value())
	}
}

func TestRegisterSetReset(t *testing.T) {
	var r Register
	r.Set(0xdead)
	if r.Value() != 0xdead {
		t.Error("Set/Value mismatch")
	}
}

func TestRegisterOldBitsAge(t *testing.T) {
	var r Register
	r.Shift(true)
	for i := 0; i < 10; i++ {
		r.Shift(false)
	}
	if (r.Value()>>10)&1 != 1 {
		t.Error("first outcome should now be bit 10")
	}
}

func TestLGHistBitNoPath(t *testing.T) {
	if LGHistBit(0x1234, true, false) != true {
		t.Error("without path the bit is the raw outcome (taken)")
	}
	if LGHistBit(0x1234, false, false) != false {
		t.Error("without path the bit is the raw outcome (not taken)")
	}
}

func TestLGHistBitWithPath(t *testing.T) {
	pcBit4Set := uint64(1 << PathBit)
	pcBit4Clear := uint64(0)
	// outcome XOR pc bit 4:
	cases := []struct {
		pc    uint64
		taken bool
		want  bool
	}{
		{pcBit4Clear, true, true},
		{pcBit4Clear, false, false},
		{pcBit4Set, true, false},
		{pcBit4Set, false, true},
	}
	for _, c := range cases {
		if got := LGHistBit(c.pc, c.taken, true); got != c.want {
			t.Errorf("LGHistBit(pc bit4=%d, taken=%v) = %v, want %v",
				(c.pc>>PathBit)&1, c.taken, got, c.want)
		}
	}
}

func TestLGHistBitUniformizes(t *testing.T) {
	// The paper's §5.1 rationale: with a heavily biased outcome stream,
	// XOR with a PC bit re-balances the inserted-bit distribution when
	// PCs are spread. Simulate 1000 always-not-taken branches at
	// alternating PC bit-4 values.
	ones := 0
	for i := 0; i < 1000; i++ {
		pc := uint64(i) << PathBit // bit 4 alternates with i
		if LGHistBit(pc, false, true) {
			ones++
		}
	}
	if ones != 500 {
		t.Errorf("path-XORed bits: %d ones of 1000, want exactly 500", ones)
	}
}

func TestPathQueue(t *testing.T) {
	var q PathQueue
	q.Push(0x100)
	q.Push(0x200)
	q.Push(0x300)
	if q.Z() != 0x300 || q.Y() != 0x200 || q.X() != 0x100 {
		t.Errorf("Z=%#x Y=%#x X=%#x", q.Z(), q.Y(), q.X())
	}
	snap := q.Snapshot()
	if snap != [3]uint64{0x300, 0x200, 0x100} {
		t.Errorf("Snapshot = %#x", snap)
	}
	q.Push(0x400)
	snap = q.Snapshot()
	if snap != [3]uint64{0x400, 0x300, 0x200} {
		t.Errorf("after 4th push Snapshot = %#x", snap)
	}
}

func TestDelayLineZeroDepth(t *testing.T) {
	d := NewDelayLine(0)
	d.Push(7)
	if d.Old() != 7 {
		t.Errorf("depth-0 Old = %d, want 7", d.Old())
	}
	d.Push(9)
	if d.Old() != 9 {
		t.Errorf("depth-0 Old = %d, want 9", d.Old())
	}
}

func TestDelayLineDepth3(t *testing.T) {
	d := NewDelayLine(3)
	if d.Depth() != 3 {
		t.Fatalf("Depth = %d", d.Depth())
	}
	// Cold start: three pushes still see the initial zero.
	for i := uint64(1); i <= 3; i++ {
		d.Push(i)
		if d.Old() != 0 {
			t.Fatalf("push %d: Old = %d, want 0 (cold)", i, d.Old())
		}
	}
	d.Push(4)
	if d.Old() != 1 {
		t.Fatalf("Old = %d, want 1", d.Old())
	}
	d.Push(5)
	if d.Old() != 2 {
		t.Fatalf("Old = %d, want 2", d.Old())
	}
}

func TestDelayLineProperty(t *testing.T) {
	// Old() always equals the value pushed depth calls ago.
	f := func(values []uint64, depthRaw uint8) bool {
		depth := int(depthRaw) % 8
		d := NewDelayLine(depth)
		for i, v := range values {
			d.Push(v)
			var want uint64
			if i >= depth {
				want = values[i-depth]
			}
			if d.Old() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDelayLinePushNMatchesPushes: PushN(v, n) leaves the ring exactly
// as n Push(v) calls do, below and above the ring's length.
func TestDelayLinePushNMatchesPushes(t *testing.T) {
	f := func(pre []uint64, v uint64, depthRaw, nRaw uint8) bool {
		depth, n := int(depthRaw)%8, int64(nRaw)%20
		got, want := NewDelayLine(depth), NewDelayLine(depth)
		for _, p := range pre {
			got.Push(p)
			want.Push(p)
		}
		got.PushN(v, n)
		for i := int64(0); i < n; i++ {
			want.Push(v)
		}
		gb, gh := got.State()
		wb, wh := want.State()
		return reflect.DeepEqual(gb, wb) && gh == wh
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayLineNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative depth should panic")
		}
	}()
	NewDelayLine(-1)
}

func TestRegisterAgainstBoolSliceModel(t *testing.T) {
	f := func(outcomes []bool) bool {
		var r Register
		for _, o := range outcomes {
			r.Shift(o)
		}
		// Compare the low min(len,64) bits against the slice model.
		n := len(outcomes)
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			want := outcomes[len(outcomes)-1-i]
			if (r.Value()>>uint(i))&1 == 1 != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
