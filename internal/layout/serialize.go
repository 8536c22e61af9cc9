package layout

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Serialization: a layout travels as a fixed header followed by its
// blocks in block-iteration order — block row by block row, each block
// written column by column as raw float64 bits. Iterating blocks (not
// the dense matrix) is what makes the format layout-faithful: the
// decoder rebuilds the same physical placement (the same per-worker
// submatrices for BCL, the same contiguous tiles for 2l-BL) instead of
// a dense copy, and the cluster tier's factorization wire format rides
// it directly. Float values round-trip bit-identically via
// math.Float64bits, which is what lets a replicated solve reproduce
// the owner's solve exactly.
//
// Header (little-endian):
//
//	magic "HSDL" | version u8 | kind u8 | m u32 | n u32 | b u32 | PR u32 | PC u32
//
// followed by 8*m*n payload bytes.

const (
	serializeMagic   = "HSDL"
	serializeVersion = 1
	serializeHdrLen  = 4 + 1 + 1 + 5*4

	// maxSerializedGrid bounds PR*PC on decode: a crafted header must
	// not make newBlockCyclic allocate per-worker submatrices for
	// millions of phantom workers.
	maxSerializedGrid = 1 << 16
)

// EncodedLen returns the exact byte length Encode produces for l.
func EncodedLen(l Layout) int {
	m, n, _ := l.Dims()
	return serializeHdrLen + 8*m*n
}

// Encode serializes l — kind, dims, grid and every block's values —
// into a self-delimiting byte string. Decode inverts it exactly.
func Encode(l Layout) []byte {
	m, n, b := l.Dims()
	g := l.Grid()
	out := make([]byte, EncodedLen(l))
	copy(out, serializeMagic)
	out[4] = serializeVersion
	out[5] = byte(l.Kind())
	le := binary.LittleEndian
	le.PutUint32(out[6:], uint32(m))
	le.PutUint32(out[10:], uint32(n))
	le.PutUint32(out[14:], uint32(b))
	le.PutUint32(out[18:], uint32(g.PR))
	le.PutUint32(out[22:], uint32(g.PC))
	mb, nb := l.Blocks()
	p := serializeHdrLen
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			v := l.Block(i, j)
			for jj := 0; jj < v.Cols; jj++ {
				col := v.Data[jj*v.Stride : jj*v.Stride+v.Rows]
				for _, x := range col {
					le.PutUint64(out[p:], math.Float64bits(x))
					p += 8
				}
			}
		}
	}
	return out
}

// Decode reconstructs a layout from data produced by Encode and
// reports how many bytes it consumed, so encoded layouts can be
// concatenated (the factorization wire format stacks two). The
// returned layout owns fresh storage.
func Decode(data []byte) (Layout, int, error) {
	if len(data) < serializeHdrLen {
		return nil, 0, fmt.Errorf("layout: encoded data too short (%d bytes)", len(data))
	}
	if string(data[:4]) != serializeMagic {
		return nil, 0, fmt.Errorf("layout: bad magic %q", data[:4])
	}
	if data[4] != serializeVersion {
		return nil, 0, fmt.Errorf("layout: unsupported format version %d", data[4])
	}
	kind := Kind(data[5])
	switch kind {
	case CM, BCL, TwoLevel:
	default:
		return nil, 0, fmt.Errorf("layout: unknown layout kind %d", data[5])
	}
	le := binary.LittleEndian
	m := int(le.Uint32(data[6:]))
	n := int(le.Uint32(data[10:]))
	b := int(le.Uint32(data[14:]))
	pr := int(le.Uint32(data[18:]))
	pc := int(le.Uint32(data[22:]))
	if b < 1 {
		return nil, 0, fmt.Errorf("layout: non-positive block size %d", b)
	}
	if pr < 1 || pc < 1 || pr*pc > maxSerializedGrid {
		return nil, 0, fmt.Errorf("layout: implausible %dx%d worker grid", pr, pc)
	}
	need := int64(serializeHdrLen) + 8*int64(m)*int64(n)
	if int64(len(data)) < need {
		return nil, 0, fmt.Errorf("layout: truncated payload: have %d bytes, need %d for %dx%d", len(data), need, m, n)
	}
	l := alloc(kind, m, n, b, Grid{PR: pr, PC: pc})
	mb, nb := l.Blocks()
	p := serializeHdrLen
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			v := l.Block(i, j)
			for jj := 0; jj < v.Cols; jj++ {
				col := v.Data[jj*v.Stride : jj*v.Stride+v.Rows]
				for ii := range col {
					col[ii] = math.Float64frombits(le.Uint64(data[p:]))
					p += 8
				}
			}
		}
	}
	return l, int(need), nil
}
