package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpSumFloat64(t *testing.T) {
	a := EncodeFloat64s([]float64{1, 2, 3})
	b := EncodeFloat64s([]float64{10, 20, 30})
	OpSum.Apply(a, b, Float64)
	got := DecodeFloat64s(a)
	want := []float64{11, 22, 33}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOpsFloat64Table(t *testing.T) {
	cases := []struct {
		op   Op
		a, b float64
		want float64
	}{
		{OpSum, 1.5, 2.5, 4},
		{OpProd, 3, 4, 12},
		{OpMax, -1, 7, 7},
		{OpMax, 9, 7, 9},
		{OpMin, -1, 7, -1},
		{OpMin, 2, 0.5, 0.5},
	}
	for _, c := range cases {
		a := EncodeFloat64s([]float64{c.a})
		c.op.Apply(a, EncodeFloat64s([]float64{c.b}), Float64)
		if got := DecodeFloat64s(a)[0]; got != c.want {
			t.Errorf("%s(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestOpsInt64Table(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpSum, 5, -3, 2},
		{OpProd, 7, 6, 42},
		{OpMax, -5, -3, -3},
		{OpMin, -5, -3, -5},
		{OpBAnd, 0b1100, 0b1010, 0b1000},
		{OpBOr, 0b1100, 0b1010, 0b1110},
		{OpBXor, 0b1100, 0b1010, 0b0110},
	}
	for _, c := range cases {
		a := EncodeInt64s([]int64{c.a})
		c.op.Apply(a, EncodeInt64s([]int64{c.b}), Int64)
		if got := DecodeInt64s(a)[0]; got != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestOpByte(t *testing.T) {
	a := []byte{1, 200, 7}
	OpMax.Apply(a, []byte{3, 100, 7}, Byte)
	if a[0] != 3 || a[1] != 200 || a[2] != 7 {
		t.Fatalf("byte max wrong: %v", a)
	}
}

// Property: integer Sum/Max/Min/Bit-ops are associative and commutative,
// so any tree combination order yields the same result.
func TestIntOpsAssocCommQuick(t *testing.T) {
	for _, op := range []Op{OpSum, OpMax, OpMin, OpBAnd, OpBOr, OpBXor} {
		op := op
		f := func(x, y, z int64) bool {
			// commutativity
			a1 := EncodeInt64s([]int64{x})
			op.Apply(a1, EncodeInt64s([]int64{y}), Int64)
			a2 := EncodeInt64s([]int64{y})
			op.Apply(a2, EncodeInt64s([]int64{x}), Int64)
			if DecodeInt64s(a1)[0] != DecodeInt64s(a2)[0] {
				return false
			}
			// associativity: (x op y) op z == x op (y op z)
			l := EncodeInt64s([]int64{x})
			op.Apply(l, EncodeInt64s([]int64{y}), Int64)
			op.Apply(l, EncodeInt64s([]int64{z}), Int64)
			yz := EncodeInt64s([]int64{y})
			op.Apply(yz, EncodeInt64s([]int64{z}), Int64)
			r := EncodeInt64s([]int64{x})
			op.Apply(r, yz, Int64)
			return DecodeInt64s(l)[0] == DecodeInt64s(r)[0]
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
			t.Errorf("op %s: %v", op, err)
		}
	}
}

// Property: float64 Max/Min are exactly associative/commutative; Sum is
// commutative (a+b == b+a exactly in IEEE 754).
func TestFloatOpsQuick(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		for _, op := range []Op{OpSum, OpMax, OpMin} {
			a := EncodeFloat64s([]float64{x})
			op.Apply(a, EncodeFloat64s([]float64{y}), Float64)
			b := EncodeFloat64s([]float64{y})
			op.Apply(b, EncodeFloat64s([]float64{x}), Float64)
			if DecodeFloat64s(a)[0] != DecodeFloat64s(b)[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	OpSum.Apply(make([]byte, 8), make([]byte, 16), Float64)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := []float64{1.5, -2.25, math.Pi, 0, math.Inf(1)}
	got := DecodeFloat64s(EncodeFloat64s(f))
	for i := range f {
		if got[i] != f[i] {
			t.Fatalf("float64 round-trip[%d]: %v != %v", i, got[i], f[i])
		}
	}
	iv := []int64{0, -1, 1 << 62, math.MinInt64}
	gi := DecodeInt64s(EncodeInt64s(iv))
	for i := range iv {
		if gi[i] != iv[i] {
			t.Fatalf("int64 round-trip[%d]: %v != %v", i, gi[i], iv[i])
		}
	}
}

// TestCodecBulkMatchesLoop: the bulk codec agrees with the per-element
// loops, called directly, byte for byte and bit for bit, on NaN payloads,
// ±0, ±Inf, the int64 extremes and empty slices, encoding into and
// decoding from buffers at an odd, misaligned offset.
func TestCodecBulkMatchesLoop(t *testing.T) {
	floats := [][]float64{nil, {}, {
		math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Copysign(math.NaN(), -1),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5,
	}}
	ints := [][]int64{nil, {}, {0, -1, 1, math.MaxInt64, math.MinInt64}}
	// misaligned returns a copy of b starting one byte into its array.
	misaligned := func(b []byte) []byte { return append([]byte{0}, b...)[1:] }
	for _, v := range floats {
		want := make([]byte, 8*len(v))
		putFloat64sLoop(want, v)
		if got := EncodeFloat64s(v); !bytes.Equal(got, want) {
			t.Fatalf("EncodeFloat64s(%v) = %x, loop %x", v, got, want)
		}
		odd := misaligned(make([]byte, len(want)))
		PutFloat64s(odd, v)
		if !bytes.Equal(odd, want) {
			t.Fatalf("PutFloat64s at an odd offset = %x, loop %x", odd, want)
		}
		got, ref := DecodeFloat64s(misaligned(want)), make([]float64, len(v))
		getFloat64sLoop(ref, want)
		for i := range v {
			if b := math.Float64bits(got[i]); b != math.Float64bits(ref[i]) || b != math.Float64bits(v[i]) {
				t.Fatalf("DecodeFloat64s[%d] = %#x, loop %#x, encoded %#x", i, b, math.Float64bits(ref[i]), math.Float64bits(v[i]))
			}
		}
	}
	for _, v := range ints {
		want := make([]byte, 8*len(v))
		putInt64sLoop(want, v)
		if got := EncodeInt64s(v); !bytes.Equal(got, want) {
			t.Fatalf("EncodeInt64s(%v) = %x, loop %x", v, got, want)
		}
		got, ref := DecodeInt64s(misaligned(want)), make([]int64, len(v))
		getInt64sLoop(ref, want)
		for i := range v {
			if got[i] != ref[i] || got[i] != v[i] {
				t.Fatalf("DecodeInt64s[%d] = %d, loop %d, encoded %d", i, got[i], ref[i], v[i])
			}
		}
	}
}

func TestStringMethods(t *testing.T) {
	if Float64.String() != "float64" || Int64.String() != "int64" || Byte.String() != "byte" {
		t.Error("datatype names wrong")
	}
	for _, op := range []Op{OpSum, OpProd, OpMax, OpMin, OpBAnd, OpBOr, OpBXor} {
		if op.String() == "" || op.String()[0] == 'O' {
			t.Errorf("op %d name %q", op, op.String())
		}
	}
	if Bytes([]byte{1}).String() == "" || Sized(5).String() == "" {
		t.Error("msg strings empty")
	}
	if MemHost.String() != "host" || MemDevice.String() != "device" || MemDefault.String() != "default" {
		t.Error("memspace names wrong")
	}
	for k := KindP2P; k <= KindRTS; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestByteOpsAll(t *testing.T) {
	cases := []struct {
		op   Op
		a, b byte
		want byte
	}{
		{OpSum, 200, 100, 44}, // wraps mod 256
		{OpProd, 7, 3, 21},
		{OpMax, 9, 200, 200},
		{OpMin, 9, 200, 9},
		{OpBAnd, 0b1100, 0b1010, 0b1000},
		{OpBOr, 0b1100, 0b1010, 0b1110},
		{OpBXor, 0b1100, 0b1010, 0b0110},
	}
	for _, c := range cases {
		a := []byte{c.a}
		c.op.Apply(a, []byte{c.b}, Byte)
		if a[0] != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, a[0], c.want)
		}
	}
}

// applyRef is the per-element reference fold: it re-dispatches on the
// operator for every element. Apply must match it byte for byte.
func applyRef(o Op, dst, src []byte, dt Datatype) {
	switch dt {
	case Float64:
		for i := 0; i+8 <= len(dst); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(foldF64(o, a, b)))
		}
	case Int64:
		for i := 0; i+8 <= len(dst); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(foldI64(o, a, b)))
		}
	}
}

func foldF64(o Op, a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	panic(fmt.Sprintf("comm: op %s not defined for float64", o))
}

func foldI64(o Op, a, b int64) int64 {
	switch o {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpBAnd:
		return a & b
	case OpBOr:
		return a | b
	case OpBXor:
		return a ^ b
	}
	panic(fmt.Sprintf("comm: op %s not defined for int64", o))
}

// TestApplyMatchesReference: the per-operator fold loops agree with
// the per-element reference byte for byte, for every op on random
// float64 and int64 buffers of odd and even lengths, with NaN
// (including non-canonical payloads), ±0, ±Inf and the int64 extremes
// mixed in.
func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specialF := []float64{math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001),
		math.Copysign(math.NaN(), -1), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1}
	specialI := []int64{0, -1, 1, math.MaxInt64, math.MinInt64}
	randF := func(n int) []byte {
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(4) {
			case 0:
				v[i] = specialF[rng.Intn(len(specialF))]
			case 1:
				v[i] = math.Float64frombits(rng.Uint64())
			default:
				v[i] = rng.NormFloat64() * 1e3
			}
		}
		return EncodeFloat64s(v)
	}
	randI := func(n int) []byte {
		v := make([]int64, n)
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = specialI[rng.Intn(len(specialI))]
			} else {
				v[i] = int64(rng.Uint64())
			}
		}
		return EncodeInt64s(v)
	}
	cases := []struct {
		dt  Datatype
		ops []Op
		gen func(n int) []byte
	}{
		{Float64, []Op{OpSum, OpProd, OpMax, OpMin}, randF},
		{Int64, []Op{OpSum, OpProd, OpMax, OpMin, OpBAnd, OpBOr, OpBXor}, randI},
	}
	for _, c := range cases {
		for _, op := range c.ops {
			for _, n := range []int{0, 1, 2, 3, 7, 8, 31, 64, 257, 1001} {
				for trial := 0; trial < 4; trial++ {
					dst, src := c.gen(n), c.gen(n)
					want := append([]byte(nil), dst...)
					applyRef(op, want, src, c.dt)
					op.Apply(dst, src, c.dt)
					if !bytes.Equal(dst, want) {
						t.Fatalf("%s/%s n=%d trial %d: Apply diverges from the reference at byte %d",
							c.dt, op, n, trial, firstDiff(dst, want))
					}
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// BenchmarkApplyFloat64Sum folds 8192 float64s (64 KiB, one served
// rank's rendezvous-sized contribution) into another.
func BenchmarkApplyFloat64Sum(b *testing.B) {
	dst, src := make([]byte, 8*8192), make([]byte, 8*8192)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		OpSum.Apply(dst, src, Float64)
	}
}
