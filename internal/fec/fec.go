// Package fec is the erasure-coding layer for the segment stream: k data
// segments are grouped with m parity segments so a receiver can
// reconstruct up to m lost segments locally, without waiting out the
// RTO + retransmit round trip. m=1 is plain XOR parity; m>1 uses a
// Reed–Solomon-style code over GF(256) built from a Cauchy matrix, so
// ANY m erasures in a group are recoverable (every square submatrix of a
// Cauchy matrix is invertible).
//
// The codec is deliberately transport-agnostic: it knows nothing about
// tags, xids, or wire frames. Each transport owns a sender-side group
// framer (accumulate k segments, emit parity) and a receiver-side
// reconstructor (track arrivals, decode the gaps); both feed segments
// through the shared progress engine so a reconstructed segment
// completes the matching receive exactly as if it had arrived on the
// wire. FEC composes with — never replaces — the faults.Recovery ARQ
// machinery: when a group loses more than m shards the retransmit path
// is still the backstop.
//
// Shards in one group may have different lengths (a trailing pipeline
// segment is short). Parity shards are as long as the longest member;
// shorter members are treated as zero-padded, and reconstruction
// re-slices each recovered shard to its true length (carried in the
// group metadata), so the padding never reaches a receiver.
package fec

import (
	"fmt"

	"adapt/internal/comm"
)

// GF(256) log/exp tables over the AES-adjacent primitive polynomial
// x^8+x^4+x^3+x^2+1 (0x11d), the same field every RS-style erasure
// coder uses. The exp table is doubled so gfMul needs no mod 255.
var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfInv(a byte) byte {
	if a == 0 {
		panic("fec: inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// Params fixes one group's geometry: K data shards, M parity shards.
type Params struct {
	K, M int
}

// Validate rejects geometries the GF(256) Cauchy construction cannot
// express: K and M must be positive and K+M must leave the parity row
// points and data column points distinct field elements.
func (p Params) Validate() error {
	if p.K < 1 || p.M < 1 {
		return fmt.Errorf("fec: params k=%d m=%d: both must be >= 1", p.K, p.M)
	}
	if p.K+p.M > 256 {
		return fmt.Errorf("fec: params k=%d m=%d: k+m exceeds GF(256) points", p.K, p.M)
	}
	return nil
}

// Coeff is the encoding coefficient of data shard i in parity shard j.
// For M=1 every coefficient is 1 — parity is the XOR of the group, and
// encode/decode never multiplies. For M>1 the matrix is Cauchy,
// c[j][i] = 1/(x_j ⊕ y_i) with x_j = j and y_i = M+i: the two point
// sets are disjoint, so every square submatrix is invertible and any M
// erasures are recoverable.
func (p Params) Coeff(j, i int) byte {
	if p.M == 1 {
		return 1
	}
	return gfInv(byte(j) ^ byte(p.M+i))
}

// shardLen is the parity length for a group: the longest member.
func shardLen(data [][]byte) int {
	n := 0
	for _, d := range data {
		if len(d) > n {
			n = len(d)
		}
	}
	return n
}

// mulAccum adds c·src into dst (dst ^= c*src bytewise). dst must be at
// least as long as src; the tail beyond src is the implicit zero pad.
func mulAccum(dst, src []byte, c byte) {
	switch c {
	case 0:
	case 1:
		for i, v := range src {
			dst[i] ^= v
		}
	default:
		lc := int(gfLog[c])
		for i, v := range src {
			if v != 0 {
				dst[i] ^= gfExp[lc+int(gfLog[v])]
			}
		}
	}
}

// EncodeParity computes the M parity shards for a group of K = len(data)
// data shards (lengths may differ; short shards count as zero-padded).
// Parity buffers come from the segment pool and are owned by the
// caller; a group whose members are all empty yields empty (non-nil)
// parity shards.
func EncodeParity(p Params, data [][]byte) [][]byte {
	return appendParity(make([][]byte, 0, p.M), p, data)
}

// appendParity appends the M parity shards of EncodeParity to dst.
func appendParity(dst [][]byte, p Params, data [][]byte) [][]byte {
	if len(data) != p.K {
		panic(fmt.Sprintf("fec: encode with %d shards, params k=%d", len(data), p.K))
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := shardLen(data)
	for j := 0; j < p.M; j++ {
		par := comm.GetBufZero(n)
		if par == nil {
			// All-empty group (zero-length segments): parity is present
			// but empty — nil means "lost" to the reconstructor.
			par = []byte{}
		}
		for i, d := range data {
			mulAccum(par, d, p.Coeff(j, i))
		}
		dst = append(dst, par)
	}
	return dst
}

// ErrShortParity reports a group with more erasures than surviving
// parity shards — reconstruction is impossible and the caller must fall
// back to the ARQ/retransmit path.
type ErrShortParity struct {
	Missing, Have int
}

func (e *ErrShortParity) Error() string {
	return fmt.Sprintf("fec: %d data shards missing but only %d parity shards survive", e.Missing, e.Have)
}

// Recoverable reports whether a group with the given erasure pattern can
// be reconstructed: the number of missing data shards must not exceed
// the number of surviving parity shards.
func Recoverable(missingData, haveParity int) bool {
	return missingData <= haveParity
}

// Reconstruct fills in the missing data shards in place: data[i] == nil
// marks an erasure, sizes[i] is shard i's true length. parity[j] == nil
// marks a lost parity shard. Recovered shards are pooled buffers
// (re-sliced to their true length) owned by the caller; zero-length
// shards come back as empty non-nil slices. Present shards are read,
// never modified. Returns *ErrShortParity when the erasures outnumber
// the surviving parity.
func Reconstruct(p Params, data [][]byte, parity [][]byte, sizes []int) error {
	if len(data) != p.K || len(parity) != p.M || len(sizes) != p.K {
		panic(fmt.Sprintf("fec: reconstruct shape (%d data, %d parity, %d sizes) vs params k=%d m=%d",
			len(data), len(parity), len(sizes), p.K, p.M))
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	var missing []int
	for i, d := range data {
		if d == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	var rows []int
	for j, q := range parity {
		if q != nil {
			rows = append(rows, j)
		}
	}
	if len(missing) > len(rows) {
		return &ErrShortParity{Missing: len(missing), Have: len(rows)}
	}
	rows = rows[:len(missing)]
	t := len(missing)

	// Shard length: the longest surviving shard. Parity shards are always
	// full-length, and at least one survives (t >= 1 and rows is non-empty).
	n := 0
	for _, j := range rows {
		if len(parity[j]) > n {
			n = len(parity[j])
		}
	}

	// Syndromes: r_j = parity_j ⊕ Σ_{present i} c[j][i]·data_i. What is
	// left is exactly the missing shards' contribution to each row.
	synd := make([][]byte, t)
	for r, j := range rows {
		s := comm.GetBufZero(n)
		mulAccum(s, parity[j], 1)
		for i, d := range data {
			if d != nil {
				mulAccum(s, d, p.Coeff(j, i))
			}
		}
		synd[r] = s
	}

	// Solve A·x = synd for the missing shards, where A[r][l] =
	// c[rows[r]][missing[l]] — a t×t submatrix of the Cauchy (or all-ones)
	// matrix, invertible by construction. Gauss–Jordan over GF(256),
	// applying every row operation to the syndrome byte streams.
	A := make([][]byte, t)
	for r, j := range rows {
		A[r] = make([]byte, t)
		for l, i := range missing {
			A[r][l] = p.Coeff(j, i)
		}
	}
	for col := 0; col < t; col++ {
		pivot := -1
		for r := col; r < t; r++ {
			if A[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			// Unreachable for Cauchy/XOR submatrices; guard anyway.
			for _, s := range synd {
				comm.PutBuf(s)
			}
			return fmt.Errorf("fec: singular reconstruction matrix (k=%d m=%d)", p.K, p.M)
		}
		A[col], A[pivot] = A[pivot], A[col]
		synd[col], synd[pivot] = synd[pivot], synd[col]
		inv := gfInv(A[col][col])
		for l := col; l < t; l++ {
			A[col][l] = gfMul(A[col][l], inv)
		}
		scaleRow(synd[col], inv)
		for r := 0; r < t; r++ {
			if r == col || A[r][col] == 0 {
				continue
			}
			f := A[r][col]
			for l := col; l < t; l++ {
				A[r][l] ^= gfMul(f, A[col][l])
			}
			mulAccum(synd[r], synd[col], f)
		}
	}

	// synd[l] now holds missing shard l, zero-padded to n; hand each back
	// at its true length. Zero-size shards become empty non-nil slices so
	// callers can distinguish "recovered empty" from "still missing".
	for l, i := range missing {
		if sizes[i] < 0 || sizes[i] > n {
			for r := l; r < t; r++ {
				comm.PutBuf(synd[r])
			}
			return fmt.Errorf("fec: shard %d size %d outside [0,%d]", i, sizes[i], n)
		}
		if sizes[i] == 0 {
			comm.PutBuf(synd[l])
			data[i] = []byte{}
			continue
		}
		data[i] = synd[l][:sizes[i]]
	}
	return nil
}

// scaleRow multiplies a byte stream by c in place.
func scaleRow(s []byte, c byte) {
	if c == 1 {
		return
	}
	lc := int(gfLog[c])
	for i, v := range s {
		if v != 0 {
			s[i] = gfExp[lc+int(gfLog[v])]
		}
	}
}

// Split divides a stream of total segments into FEC groups, sized per
// the il2p small/large block-count split: the group count is
// ceil(total/targetK), and groups are as equal as possible — large
// groups (small+1 segments) first, then small groups — so a trailing
// group is never pathologically tiny. Used wherever the segment count
// is known up front (benchmark stream protection, tests); the online
// framers approximate it with a fill-or-flush policy.
func Split(total, targetK int) []int {
	if total <= 0 {
		return nil
	}
	if targetK < 1 {
		targetK = 1
	}
	blockCount := (total + targetK - 1) / targetK
	small := total / blockCount
	largeCount := total - blockCount*small
	smallCount := blockCount - largeCount
	sizes := make([]int, 0, blockCount)
	for i := 0; i < largeCount; i++ {
		sizes = append(sizes, small+1)
	}
	for i := 0; i < smallCount; i++ {
		sizes = append(sizes, small)
	}
	return sizes
}
