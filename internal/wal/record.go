package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout. Every record is length-prefixed and CRC32C-framed:
//
//	[len uint32 LE][crc32c uint32 LE][payload: kind byte + body]
//
// len counts payload bytes; the CRC (Castagnoli polynomial) covers the
// payload only. A frame whose length field is implausible, whose payload is
// cut short, or whose CRC mismatches is treated as the torn tail of the log:
// recovery stops there and truncates. Bodies use varint encoding (zigzag for
// keys) — chunk runs of nearby keys delta-compress naturally.

const (
	frameHeader = 8       // len + crc
	maxFrame    = 1 << 28 // sanity bound; larger lengths are treated as corruption
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds.
const (
	// kindOps is a self-committed set of operations: a singleton write or a
	// serializable range update, atomic as one frame.
	kindOps = byte(1)
	// kindBatchPart carries one group commit's operations of a batch unit;
	// replayed only when the unit's kindBatchCommit marker is in the log.
	kindBatchPart = byte(2)
	// kindBatchCommit marks a batch unit durable-complete.
	kindBatchCommit = byte(3)
	// kindCheckpointStart opens a checkpoint file.
	kindCheckpointStart = byte(4)
	// kindChunkImage is one sorted chunk image of a checkpoint.
	kindChunkImage = byte(5)
	// kindCheckpointEnd closes a checkpoint file, carrying totals for
	// validation; a checkpoint without it never entered the manifest.
	kindCheckpointEnd = byte(6)
)

// Op is one logged operation, already resolved to its effect: Del removes
// Key, otherwise Key is set to Val. Insert-or-overwrite distinctions are
// settled before logging — only effective mutations reach the log — so
// replay is a plain upsert/delete stream and re-applying a suffix of it on
// top of a newer checkpoint is idempotent.
type Op struct {
	Key int64
	Val []byte
	Del bool
}

// Record is one decoded log record.
type Record struct {
	Kind byte
	Unit uint64 // batch unit for kindBatchPart/kindBatchCommit; 0 otherwise
	Ops  []Op   // kindOps and kindBatchPart payloads
}

// appendFrame wraps payload in a frame and appends it to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// appendOpsBody appends the shared ops body: count, then per op a flag byte,
// a zigzag key, and (for puts) the value bytes.
func appendOpsBody(dst []byte, ops []Op) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		flags := byte(0)
		if op.Del {
			flags = 1
		}
		dst = append(dst, flags)
		dst = binary.AppendVarint(dst, op.Key)
		if !op.Del {
			dst = binary.AppendUvarint(dst, uint64(len(op.Val)))
			dst = append(dst, op.Val...)
		}
	}
	return dst
}

// encodeOps builds a kindOps payload.
func encodeOps(dst []byte, ops []Op) []byte {
	dst = append(dst, kindOps)
	return appendOpsBody(dst, ops)
}

// encodeBatchPart builds a kindBatchPart payload.
func encodeBatchPart(dst []byte, unit uint64, ops []Op) []byte {
	dst = append(dst, kindBatchPart)
	dst = binary.AppendUvarint(dst, unit)
	return appendOpsBody(dst, ops)
}

// encodeBatchCommit builds a kindBatchCommit payload.
func encodeBatchCommit(dst []byte, unit uint64) []byte {
	dst = append(dst, kindBatchCommit)
	return binary.AppendUvarint(dst, unit)
}

// encodeCheckpointStart builds a kindCheckpointStart payload.
func encodeCheckpointStart(dst []byte) []byte {
	return append(dst, kindCheckpointStart)
}

// Chunk images. A checkpoint is a sequence of images, each a run of the
// map's pairs in ascending key order; recovery joins every image of a
// checkpoint into one sorted run and bulk-loads it, which re-chunks the
// pairs at the map's own target size, so an image's length is independent of
// the map's chunking (Compact writes 512-key runs). The layout exploits the
// sortedness — the first key is zigzag-encoded, every following key is a
// strictly-positive delta, and values are length-prefixed byte strings:
//
//	count uvarint
//	key[0] varint (zigzag)
//	delta[i] = key[i] - key[i-1] uvarint, i ≥ 1 (always ≥ 1)
//	for each i: len(val[i]) uvarint, val[i] bytes
//
// Runs of nearby keys — the common case, since images come from windows of
// an ordered walk — compress to one or two bytes per key.

// errBadImage reports a malformed or non-ascending chunk image.
var errBadImage = errors.New("wal: bad chunk image")

// maxImageKeys bounds a single image's key count against corrupted headers.
const maxImageKeys = 1 << 24

// encodeChunkImage builds a kindChunkImage payload from one sorted run's
// keys and encoded values. keys must be strictly ascending and
// len(vals) == len(keys).
func encodeChunkImage(dst []byte, keys []int64, vals [][]byte) []byte {
	dst = append(dst, kindChunkImage)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	prev := int64(0)
	for i, k := range keys {
		if i == 0 {
			dst = binary.AppendVarint(dst, k)
		} else {
			if k <= prev {
				panic("wal: chunk image keys not strictly ascending")
			}
			dst = binary.AppendUvarint(dst, uint64(k-prev))
		}
		prev = k
	}
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// decodeChunkImage parses one chunk image body (the payload after its kind
// byte), appending its keys and values to the provided slices. Returned
// values alias freshly-allocated memory, never b. It validates strict key
// ascent, so a corrupted image that still passes the log's CRC cannot
// smuggle an out-of-order key into the bulk-load fast path.
func decodeChunkImage(b []byte, keys []int64, vals [][]byte) ([]int64, [][]byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > maxImageKeys {
		return keys, vals, errBadImage
	}
	b = b[n:]
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		var k int64
		if i == 0 {
			var n int
			k, n = binary.Varint(b)
			if n <= 0 {
				return keys, vals, errBadImage
			}
			b = b[n:]
		} else {
			d, n := binary.Uvarint(b)
			if n <= 0 || d == 0 {
				return keys, vals, errBadImage
			}
			b = b[n:]
			k = prev + int64(d)
			if k <= prev { // overflow wrap
				return keys, vals, errBadImage
			}
		}
		keys = append(keys, k)
		prev = k
	}
	for i := uint64(0); i < count; i++ {
		vlen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < vlen {
			return keys, vals, errBadImage
		}
		b = b[n:]
		vals = append(vals, append([]byte(nil), b[:vlen]...))
		b = b[vlen:]
	}
	if len(b) != 0 {
		return keys, vals, errBadImage
	}
	return keys, vals, nil
}

// encodeCheckpointEnd builds a kindCheckpointEnd payload carrying the chunk
// and key totals for end-to-end validation.
func encodeCheckpointEnd(dst []byte, chunks, keys uint64) []byte {
	dst = append(dst, kindCheckpointEnd)
	dst = binary.AppendUvarint(dst, chunks)
	return binary.AppendUvarint(dst, keys)
}

// errBadFrame marks payloads recovery must treat as the torn tail.
var errBadFrame = errors.New("wal: bad frame")

// decodeOpsBody parses the shared ops body.
func decodeOpsBody(b []byte) ([]Op, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > maxFrame {
		return nil, errBadFrame
	}
	b = b[n:]
	ops := make([]Op, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(b) < 2 {
			return nil, errBadFrame
		}
		flags := b[0]
		if flags > 1 {
			return nil, errBadFrame
		}
		b = b[1:]
		k, n := binary.Varint(b)
		if n <= 0 {
			return nil, errBadFrame
		}
		b = b[n:]
		op := Op{Key: k, Del: flags == 1}
		if !op.Del {
			vlen, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < vlen {
				return nil, errBadFrame
			}
			b = b[n:]
			op.Val = append([]byte(nil), b[:vlen]...)
			b = b[vlen:]
		}
		ops = append(ops, op)
	}
	if len(b) != 0 {
		return nil, errBadFrame
	}
	return ops, nil
}

// decodeRecord parses one payload into a Record.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, errBadFrame
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case kindOps:
		ops, err := decodeOpsBody(body)
		if err != nil {
			return Record{}, err
		}
		return Record{Kind: kind, Ops: ops}, nil
	case kindBatchPart:
		unit, n := binary.Uvarint(body)
		if n <= 0 {
			return Record{}, errBadFrame
		}
		ops, err := decodeOpsBody(body[n:])
		if err != nil {
			return Record{}, err
		}
		return Record{Kind: kind, Unit: unit, Ops: ops}, nil
	case kindBatchCommit:
		unit, n := binary.Uvarint(body)
		if n <= 0 || len(body) != n {
			return Record{}, errBadFrame
		}
		return Record{Kind: kind, Unit: unit}, nil
	case kindCheckpointStart, kindChunkImage, kindCheckpointEnd:
		// Checkpoint frames live in checkpoint files and are decoded by the
		// checkpoint reader; one appearing in an op segment is corruption.
		return Record{}, errBadFrame
	default:
		return Record{}, errBadFrame
	}
}

// frameScanner walks the frames of one file.
type frameScanner struct {
	f    File
	size int64
	off  int64
	buf  []byte
}

func newFrameScanner(f File) (*frameScanner, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	return &frameScanner{f: f, size: size}, nil
}

// next returns the payload of the next frame. ok=false with err==nil means
// a clean end of file; err==errBadFrame means the scan hit a torn or corrupt
// frame at offset s.off (which the caller truncates at); other errors are
// I/O failures. The returned payload is only valid until the next call.
func (s *frameScanner) next() (payload []byte, ok bool, err error) {
	if s.off == s.size {
		return nil, false, nil
	}
	if s.size-s.off < frameHeader {
		return nil, false, errBadFrame
	}
	var hdr [frameHeader]byte
	if _, err := s.f.ReadAt(hdr[:], s.off); err != nil {
		return nil, false, fmt.Errorf("wal: read frame header: %w", err)
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if plen == 0 || plen > maxFrame || s.size-s.off-frameHeader < plen {
		return nil, false, errBadFrame
	}
	if int64(cap(s.buf)) < plen {
		s.buf = make([]byte, plen)
	}
	buf := s.buf[:plen]
	if _, err := s.f.ReadAt(buf, s.off+frameHeader); err != nil {
		return nil, false, fmt.Errorf("wal: read frame payload: %w", err)
	}
	if crc32.Checksum(buf, castagnoli) != crc {
		return nil, false, errBadFrame
	}
	s.off += frameHeader + plen
	return buf, true, nil
}
