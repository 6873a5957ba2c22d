package layers

import (
	"encoding/binary"
	"sync"
	"time"

	"skipvector/internal/wal"
)

// WALCall is the time one captured write call spent in the log: Appended is
// when its last record had been appended, End when Commit returned.
type WALCall struct {
	Seq                  int // index among the thread's write calls
	Start, Appended, End time.Duration
	Records              int
}

// WALReplay is what ReplayWAL measured.
type WALReplay struct {
	Calls [][]WALCall // per thread, the timed calls
	// Recovery of the log the replay wrote: reopen time and intact records.
	Recover        time.Duration
	RecoverRecords uint64
}

// ReplayWAL feeds a captured commit stream to a fresh log in dir exactly as
// DurableMap feeds it — AppendOps per singleton, BeginUnit / AppendBatchPart
// per hook call / EndUnit per batch, Commit per call, interval fsync — from
// one goroutine per captured thread, timing the calls timed(t, seq) selects.
// since is the benchmark's clock. It then closes the log and times wal.Open
// on what was written.
func ReplayWAL(dir string, cl *CommitLog, timed func(t, seq int) bool, since func() time.Duration) (*WALReplay, error) {
	opts := wal.Options{Policy: wal.SyncInterval}
	log, _, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	res := &WALReplay{Calls: make([][]WALCall, len(cl.threads))}
	errs := make([]error, len(cl.threads))
	var wg sync.WaitGroup
	for t := range cl.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Calls[t], errs[t] = replayThread(log, &cl.threads[t], func(seq int) bool { return timed(t, seq) }, since)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Close()
			return nil, err
		}
	}
	if err := log.Sync(); err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	log, rec, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	res.Recover = time.Since(t0)
	res.RecoverRecords = rec.ScannedRecords
	return res, log.Close()
}

func replayThread(log *wal.Log, b *commitBuf, timed func(seq int) bool, since func() time.Duration) ([]WALCall, error) {
	var (
		out  []WALCall
		ops  []wal.Op
		vals []byte
		part int32
	)
	for seq, call := range b.calls {
		var c WALCall
		on := timed(seq)
		if on {
			c = WALCall{Seq: seq, Start: since()}
		}
		var unit uint64
		if call.batch {
			unit = log.BeginUnit()
		}
		for ; part < call.partsEnd; part++ {
			lo := int32(0)
			if part > 0 {
				lo = b.parts[part-1]
			}
			ops, vals = ops[:0], vals[:0]
			for _, k := range b.keys[lo:b.parts[part]] {
				if k < 0 {
					ops = append(ops, wal.Op{Key: ^k, Del: true})
					continue
				}
				// The value's bytes stand in for the facade's encoding; what
				// they are does not change what the log does with them.
				vals = binary.LittleEndian.AppendUint64(vals, uint64(k))
				ops = append(ops, wal.Op{Key: k, Val: vals[len(vals)-8:]})
			}
			var err error
			if call.batch {
				err = log.AppendBatchPart(unit, ops)
			} else {
				err = log.AppendOps(ops)
			}
			if err != nil {
				return nil, err
			}
			c.Records++
		}
		if call.batch {
			if err := log.EndUnit(unit); err != nil {
				return nil, err
			}
			c.Records++
		}
		if on {
			c.Appended = since()
		}
		if err := log.Commit(); err != nil {
			return nil, err
		}
		if on {
			c.End = since()
			out = append(out, c)
		}
	}
	return out, nil
}
