package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path"
)

// ErrCorruptCheckpoint reports damage inside a manifest-referenced
// checkpoint file. Unlike a torn op-segment tail — which is the expected
// shape of a crash and is truncated away — a committed checkpoint was
// fsynced before the manifest swap, so corruption there means the storage
// lied; recovery refuses to guess.
var ErrCorruptCheckpoint = errors.New("wal: corrupt checkpoint")

// Recovery is what Open found in the log. The caller rebuilds its map from
// the checkpoint image (sorted, bulk-loadable) and then applies Tail in
// order; both are already filtered for batch atomicity.
type Recovery struct {
	// CheckpointKeys/CheckpointVals are the checkpoint's live mappings in
	// strictly ascending key order (empty without a checkpoint).
	CheckpointKeys []int64
	CheckpointVals [][]byte
	// Tail holds the op records after the checkpoint, in log order, with
	// parts of uncommitted batch units dropped and commit markers elided.
	Tail []Record
	// Truncated reports that a torn or corrupt frame cut the scan short;
	// TruncatedSegment/TruncatedOffset locate the cut (the log was truncated
	// there and later segments discarded), TruncatedBytes counts the loss.
	Truncated        bool
	TruncatedSegment string
	TruncatedOffset  int64
	TruncatedBytes   int64
	// ScannedRecords counts intact frames; ReplayedRecords those that
	// contribute to the recovered state (op frames and committed batch
	// frames, markers included); DroppedRecords the uncommitted batch parts.
	// ScannedRecords == ReplayedRecords + DroppedRecords always holds.
	ScannedRecords  uint64
	ReplayedRecords uint64
	DroppedRecords  uint64
}

// recover loads the manifest, reads the checkpoint, scans the op segments
// (truncating at the first corrupt frame), resolves batch units, garbage-
// collects unreferenced files, and leaves l open for appending.
func (l *Log) recover() (*Recovery, error) {
	mf, missing, err := readManifest(l.fs, l.dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{TruncatedOffset: -1}

	// Seed the id allocator past every file ever seen, referenced or not, so
	// a new segment can never collide with a stale file about to be GCed.
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if id, ok := fileID(n); ok && id >= l.nextID {
			l.nextID = id + 1
		}
	}
	if l.nextID == 0 {
		l.nextID = 1
	}

	if missing {
		// Fresh directory (or one that crashed before its first manifest —
		// nothing was ever acknowledged, so starting empty is exact).
		l.mf = &manifest{}
		if err := l.openNewTailLocked(); err != nil {
			return nil, err
		}
		l.gcUnreferenced()
		return rec, nil
	}
	l.mf = mf

	if mf.checkpoint != "" {
		keys, vals, err := l.readCheckpoint(mf.checkpoint)
		if err != nil {
			return nil, err
		}
		rec.CheckpointKeys, rec.CheckpointVals = keys, vals
	}

	// Scan op segments in manifest order, stopping at the first bad frame.
	type scanStop struct {
		seg  string
		segi int
		off  int64
	}
	var stop *scanStop
	var records []Record
	maxUnit := uint64(0)
scan:
	for i, seg := range mf.segments {
		f, err := l.fs.Open(path.Join(l.dir, seg))
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %s: %w", seg, err)
		}
		sc, err := newFrameScanner(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		for {
			start := sc.off
			payload, ok, err := sc.next()
			if errors.Is(err, errBadFrame) {
				stop = &scanStop{seg: seg, segi: i, off: start}
				f.Close()
				break scan
			}
			if err != nil {
				f.Close()
				return nil, err
			}
			if !ok {
				break
			}
			r, derr := decodeRecord(payload)
			if derr != nil {
				// The CRC matched but the body is nonsense: treat exactly
				// like a torn frame — truncate here.
				stop = &scanStop{seg: seg, segi: i, off: start}
				f.Close()
				break scan
			}
			if r.Unit > maxUnit {
				maxUnit = r.Unit
			}
			records = append(records, r)
		}
		f.Close()
	}

	// Batch atomicity: a unit's parts replay only when its commit marker was
	// scanned. Parts always precede their marker in the log, so a marker in
	// hand proves the whole unit is in hand.
	committed := make(map[uint64]bool)
	for _, r := range records {
		if r.Kind == kindBatchCommit {
			committed[r.Unit] = true
		}
	}
	rec.ScannedRecords = uint64(len(records))
	for _, r := range records {
		switch r.Kind {
		case kindOps:
			rec.ReplayedRecords++
			rec.Tail = append(rec.Tail, r)
		case kindBatchPart:
			if committed[r.Unit] {
				rec.ReplayedRecords++
				rec.Tail = append(rec.Tail, r)
			} else {
				rec.DroppedRecords++
			}
		case kindBatchCommit:
			rec.ReplayedRecords++ // the marker committed its unit
		}
	}
	// Reused unit ids must never adopt an earlier life's orphaned parts.
	l.unitSeq.Store(maxUnit)

	if stop != nil {
		rec.Truncated = true
		rec.TruncatedSegment = stop.seg
		rec.TruncatedOffset = stop.off
		// Cut the torn segment at the last good frame and discard every
		// later segment: nothing after the first bad frame is trustworthy,
		// and nothing after it can have been acknowledged under any policy
		// (acks follow appends, and appends are ordered).
		if sz := l.fileSize(stop.seg); sz > stop.off {
			rec.TruncatedBytes += sz - stop.off
		}
		if err := l.fs.Truncate(path.Join(l.dir, stop.seg), stop.off); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		for _, seg := range mf.segments[stop.segi+1:] {
			rec.TruncatedBytes += max(l.fileSize(seg), 0)
		}
		if stop.segi != len(mf.segments)-1 {
			next := &manifest{checkpoint: mf.checkpoint, segments: append([]string(nil), mf.segments[:stop.segi+1]...)}
			if err := writeManifest(l.fs, l.dir, next); err != nil {
				return nil, err
			}
			l.mf = next
		}
		l.c.recTruncs.Add(1)
		l.c.recTruncBytes.Add(uint64(rec.TruncatedBytes))
	}

	// Open the tail segment for appending.
	tail := l.mf.segments[len(l.mf.segments)-1]
	f, err := l.fs.OpenAppend(path.Join(l.dir, tail))
	if err != nil {
		return nil, fmt.Errorf("wal: open tail segment: %w", err)
	}
	sz, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	l.tailFile = f
	l.tailSize = sz

	l.gcUnreferenced()
	l.c.recScanned.Store(rec.ScannedRecords)
	l.c.recReplayed.Store(rec.ReplayedRecords)
	l.c.recDropped.Store(rec.DroppedRecords)
	return rec, nil
}

// readCheckpoint loads and validates one checkpoint file: a start frame,
// chunk images with globally ascending keys, and an end frame whose totals
// match. Any deviation is ErrCorruptCheckpoint.
func (l *Log) readCheckpoint(name string) ([]int64, [][]byte, error) {
	f, err := l.fs.Open(path.Join(l.dir, name))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open checkpoint %s: %w", name, err)
	}
	defer f.Close()
	sc, err := newFrameScanner(f)
	if err != nil {
		return nil, nil, err
	}
	var keys []int64
	var vals [][]byte
	chunks := uint64(0)
	sawStart, sawEnd := false, false
	for {
		payload, ok, err := sc.next()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %s: %v", ErrCorruptCheckpoint, name, err)
		}
		if !ok {
			break
		}
		if sawEnd {
			return nil, nil, fmt.Errorf("%w: %s: frames after end marker", ErrCorruptCheckpoint, name)
		}
		kind := payload[0]
		switch {
		case !sawStart:
			if kind != kindCheckpointStart {
				return nil, nil, fmt.Errorf("%w: %s: missing start frame", ErrCorruptCheckpoint, name)
			}
			sawStart = true
		case kind == kindChunkImage:
			prevLen := len(keys)
			keys, vals, err = decodeChunkImage(payload[1:], keys, vals)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %s: %v", ErrCorruptCheckpoint, name, err)
			}
			if prevLen > 0 && len(keys) > prevLen && keys[prevLen] <= keys[prevLen-1] {
				return nil, nil, fmt.Errorf("%w: %s: chunk images out of order", ErrCorruptCheckpoint, name)
			}
			chunks++
		case kind == kindCheckpointEnd:
			r := payload[1:]
			wantChunks, n1 := binary.Uvarint(r)
			if n1 <= 0 {
				return nil, nil, fmt.Errorf("%w: %s: bad end frame", ErrCorruptCheckpoint, name)
			}
			wantKeys, n2 := binary.Uvarint(r[n1:])
			if n2 <= 0 || len(r) != n1+n2 {
				return nil, nil, fmt.Errorf("%w: %s: bad end frame", ErrCorruptCheckpoint, name)
			}
			if wantChunks != chunks || wantKeys != uint64(len(keys)) {
				return nil, nil, fmt.Errorf("%w: %s: totals mismatch (have %d chunks/%d keys, want %d/%d)",
					ErrCorruptCheckpoint, name, chunks, len(keys), wantChunks, wantKeys)
			}
			sawEnd = true
		default:
			return nil, nil, fmt.Errorf("%w: %s: unexpected frame kind %d", ErrCorruptCheckpoint, name, kind)
		}
	}
	if !sawStart || !sawEnd {
		return nil, nil, fmt.Errorf("%w: %s: incomplete", ErrCorruptCheckpoint, name)
	}
	return keys, vals, nil
}

// gcUnreferenced deletes every wal-shaped file the manifest does not
// reference: segments dropped by truncation, checkpoints whose compaction
// crashed before the swap, and stale manifest temporaries. Safe by
// construction — the manifest is the only root, and it was durably written
// before this runs.
func (l *Log) gcUnreferenced() {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	live := map[string]bool{manifestName: true}
	if l.mf.checkpoint != "" {
		live[l.mf.checkpoint] = true
	}
	for _, s := range l.mf.segments {
		live[s] = true
	}
	for _, n := range names {
		if live[n] {
			continue
		}
		if _, ok := fileID(n); ok || n == manifestName+".tmp" {
			_ = l.fs.Remove(path.Join(l.dir, n))
		}
	}
}

func (l *Log) fileSize(name string) int64 {
	f, err := l.fs.Open(path.Join(l.dir, name))
	if err != nil {
		return -1
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		return -1
	}
	return sz
}
