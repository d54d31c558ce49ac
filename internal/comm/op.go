package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Datatype identifies the element type of a reduction payload.
type Datatype uint8

const (
	Float64 Datatype = iota
	Int64
	Byte
)

// ElemSize returns the size in bytes of one element.
func (d Datatype) ElemSize() int {
	switch d {
	case Float64, Int64:
		return 8
	case Byte:
		return 1
	}
	panic(fmt.Sprintf("comm: unknown datatype %d", d))
}

func (d Datatype) String() string {
	switch d {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case Byte:
		return "byte"
	}
	return fmt.Sprintf("Datatype(%d)", uint8(d))
}

// Op is a predefined reduction operation. All predefined ops are
// associative and commutative, so trees may combine partial results in any
// order (floating-point results are reproducible here because the
// simulator is deterministic; the live runtime combines in tree order).
type Op uint8

const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
	OpBAnd
	OpBOr
	OpBXor
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpBAnd:
		return "band"
	case OpBOr:
		return "bor"
	case OpBXor:
		return "bxor"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Apply folds src into dst element-wise: dst = dst ⊕ src. Both slices must
// have the same length, a multiple of dt.ElemSize(). Apply is the "CPU
// reduction kernel"; cost accounting is the caller's job (Comm.Compute).
// The operator is picked once per call: each (datatype, op) pair has its
// own loop, so the per-element work is the arithmetic alone.
func (o Op) Apply(dst, src []byte, dt Datatype) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reduce length mismatch %d != %d", len(dst), len(src)))
	}
	es := dt.ElemSize()
	if len(dst)%es != 0 {
		panic(fmt.Sprintf("comm: reduce buffer %dB not a multiple of element size %d", len(dst), es))
	}
	if len(dst) == 0 {
		return // nothing to fold, so not even an op undefined for dt panics
	}
	switch dt {
	case Float64:
		o.applyF64(dst, src)
	case Int64:
		o.applyI64(dst, src)
	case Byte:
		for i := range dst {
			dst[i] = o.foldByte(dst[i], src[i])
		}
	default:
		panic("comm: unknown datatype")
	}
}

func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getI64(b []byte) int64      { return int64(binary.LittleEndian.Uint64(b)) }
func putI64(b []byte, v int64)   { binary.LittleEndian.PutUint64(b, uint64(v)) }

// applyF64 folds non-empty float64 buffers of equal length. Max and Min
// keep math.Max/math.Min semantics for NaN and signed zeros. Each loop
// works on 8-byte windows d, s of dst and src. With src resliced to
// len(dst) once, one bounds check on d's window covers both, where
// reading and writing through dst[i:] and src[i:] paid one per access.
func (o Op) applyF64(dst, src []byte) {
	src = src[:len(dst)]
	switch o {
	case OpSum:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putF64(d, getF64(d)+getF64(s))
		}
	case OpProd:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putF64(d, getF64(d)*getF64(s))
		}
	case OpMax:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putF64(d, math.Max(getF64(d), getF64(s)))
		}
	case OpMin:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putF64(d, math.Min(getF64(d), getF64(s)))
		}
	default:
		panic(fmt.Sprintf("comm: op %s not defined for float64", o))
	}
}

// applyI64 folds non-empty int64 buffers of equal length, on 8-byte
// windows as applyF64 does.
func (o Op) applyI64(dst, src []byte) {
	src = src[:len(dst)]
	switch o {
	case OpSum:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putI64(d, getI64(d)+getI64(s))
		}
	case OpProd:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putI64(d, getI64(d)*getI64(s))
		}
	case OpMax:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putI64(d, max(getI64(d), getI64(s)))
		}
	case OpMin:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putI64(d, min(getI64(d), getI64(s)))
		}
	case OpBAnd:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putI64(d, getI64(d)&getI64(s))
		}
	case OpBOr:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putI64(d, getI64(d)|getI64(s))
		}
	case OpBXor:
		for i := 0; i+8 <= len(dst); i += 8 {
			d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
			putI64(d, getI64(d)^getI64(s))
		}
	default:
		panic(fmt.Sprintf("comm: op %s not defined for int64", o))
	}
}

func (o Op) foldByte(a, b byte) byte {
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
	panic(fmt.Sprintf("comm: op %s not defined for byte", o))
}

// The float64 and int64 codec. On a little-endian host a []float64 or
// []int64 already holds its wire bytes, so encoding and decoding are one
// copy through a byte view of the typed slice. Only the typed side is
// ever viewed: *float64 → *byte is always aligned, while a []byte taken
// at any offset of a frame need not be 8-byte aligned, so the codec
// never converts that way. A big-endian host runs the per-element loops.

// hostLittleEndian reports whether the host's native byte order is the
// wire's.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wordBytes views the backing array of an 8-byte-element slice as bytes.
func wordBytes[T float64 | int64](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// Float64sWire returns v's wire bytes without copying: on a
// little-endian host, a byte view of v's backing array (ok true), which
// aliases v and must only be read while v is live and unchanged. A
// big-endian host has no such view and gets ok false; encode with
// PutFloat64s instead.
func Float64sWire(v []float64) (b []byte, ok bool) {
	if !hostLittleEndian {
		return nil, false
	}
	return wordBytes(v), true
}

// PutFloat64s writes v into b as little-endian float64s; len(b) must be
// at least 8*len(v).
func PutFloat64s(b []byte, v []float64) {
	if len(b) < 8*len(v) {
		panic(fmt.Sprintf("comm: %dB buffer too short for %d float64s", len(b), len(v)))
	}
	if hostLittleEndian {
		copy(b, wordBytes(v))
		return
	}
	putFloat64sLoop(b, v)
}

// EncodeFloat64s packs a float64 slice into a fresh byte buffer.
func EncodeFloat64s(v []float64) []byte {
	b := make([]byte, 8*len(v))
	PutFloat64s(b, v)
	return b
}

// DecodeFloat64s unpacks a byte buffer produced by EncodeFloat64s.
func DecodeFloat64s(b []byte) []float64 {
	if len(b)%8 != 0 {
		panic("comm: float64 buffer length not a multiple of 8")
	}
	v := make([]float64, len(b)/8)
	if hostLittleEndian {
		copy(wordBytes(v), b)
	} else {
		getFloat64sLoop(v, b)
	}
	return v
}

// EncodeInt64s packs an int64 slice into a fresh byte buffer.
func EncodeInt64s(v []int64) []byte {
	b := make([]byte, 8*len(v))
	if hostLittleEndian {
		copy(b, wordBytes(v))
	} else {
		putInt64sLoop(b, v)
	}
	return b
}

// DecodeInt64s unpacks a byte buffer produced by EncodeInt64s.
func DecodeInt64s(b []byte) []int64 {
	if len(b)%8 != 0 {
		panic("comm: int64 buffer length not a multiple of 8")
	}
	v := make([]int64, len(b)/8)
	if hostLittleEndian {
		copy(wordBytes(v), b)
	} else {
		getInt64sLoop(v, b)
	}
	return v
}

// The per-element codec: the big-endian fallback, and the reference the
// bulk path must match byte for byte.

func putFloat64sLoop(b []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

func getFloat64sLoop(v []float64, b []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func putInt64sLoop(b []byte, v []int64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

func getInt64sLoop(v []int64, b []byte) {
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
