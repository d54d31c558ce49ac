package serve

import (
	"bytes"
	"testing"

	"adapt/internal/comm"
)

// TestResultFrameWideMask pins the survivor-mask length field at 32
// bits: worlds up to maxWireWorld are legal, so an FT result's mask can
// be far longer than 255 entries and must round-trip rather than wrap
// into a length the parser rejects.
func TestResultFrameWideMask(t *testing.T) {
	data := comm.EncodeFloat64s([]float64{1.5, -2.25, 1e9})
	for _, n := range []int{0, 1, 255, 256, 300, maxWireWorld} {
		var mask []bool
		if n > 0 {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = i%3 != 0
			}
		}
		frame := encodeResult(resultMsg{ID: 7, Mask: mask, Data: data})
		typ, payload, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("mask %d: readFrame: %v", n, err)
		}
		if typ != sfResult {
			t.Fatalf("mask %d: frame type %#x, want result", n, typ)
		}
		m, err := parseResult(payload)
		if err != nil {
			t.Fatalf("mask %d: parseResult: %v", n, err)
		}
		if m.ID != 7 {
			t.Fatalf("mask %d: id %d, want 7", n, m.ID)
		}
		if len(m.Mask) != n {
			t.Fatalf("mask %d: round-tripped to %d entries", n, len(m.Mask))
		}
		for i, alive := range m.Mask {
			if alive != mask[i] {
				t.Fatalf("mask %d: entry %d flipped", n, i)
			}
		}
		if !bytes.Equal(m.Data, data) {
			t.Fatalf("mask %d: payload corrupted", n)
		}
	}
}
