package skipvector

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"skipvector/internal/wal"
)

// durableHash fingerprints a durable map's full content; comparable with
// modelHash over a reference map.
func durableHash[V any](d *DurableMap[V]) uint64 {
	h := fnv.New64a()
	d.Ascend(func(k int64, v V) bool {
		fmt.Fprintf(h, "%d=%v;", k, v)
		return true
	})
	return h.Sum64()
}

// modelHash fingerprints a reference map the same way.
func modelHash(m map[int64]string) uint64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%d=%v;", k, m[k])
	}
	return h.Sum64()
}

// metricValue extracts one metric from a durable map's Prometheus
// exposition.
func metricValue[V any](t *testing.T, d *DurableMap[V], name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value in %q", name, line)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// verifyWALMetricIdentities gates the recovery accounting identities on a
// freshly reopened map: every scanned record was either replayed or dropped
// (uncommitted batch parts), the RecoveryInfo mirror matches the metrics,
// and no more records were scanned than the previous life appended
// (prevAppended < 0 skips the cross-life check).
func verifyWALMetricIdentities[V any](t *testing.T, d *DurableMap[V], prevAppended float64) {
	t.Helper()
	scanned := metricValue(t, d, "sv_wal_records_scanned_total")
	replayed := metricValue(t, d, "sv_wal_records_replayed_total")
	dropped := metricValue(t, d, "sv_wal_records_dropped_total")
	if scanned != replayed+dropped {
		t.Fatalf("identity violated: scanned %v != replayed %v + dropped %v", scanned, replayed, dropped)
	}
	info := d.Recovery()
	if uint64(scanned) != info.ScannedRecords || uint64(replayed) != info.ReplayedRecords || uint64(dropped) != info.DroppedRecords {
		t.Fatalf("RecoveryInfo %+v disagrees with metrics scanned=%v replayed=%v dropped=%v",
			info, scanned, replayed, dropped)
	}
	truncs := metricValue(t, d, "sv_wal_recovery_truncations_total")
	if info.Truncated != (truncs > 0) {
		t.Fatalf("truncation flag %v vs metric %v", info.Truncated, truncs)
	}
	if prevAppended >= 0 && scanned > prevAppended {
		t.Fatalf("scanned %v records but previous life appended only %v", scanned, prevAppended)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	fs := wal.NewMemFS(1)
	d, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Insert(1, "one"); !ok || err != nil {
		t.Fatalf("Insert: %v %v", ok, err)
	}
	if ok, err := d.Insert(1, "dup"); ok || err != nil {
		t.Fatalf("duplicate Insert: %v %v", ok, err)
	}
	if _, err := d.Upsert(2, "two"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch([]BatchOp[string]{
		{Key: 3, Val: "three"}, {Key: 4, Val: "four"}, {Key: 2, Delete: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(5, "five"); err != nil {
		t.Fatal(err)
	}
	if n, err := d.RangeUpdate(3, 5, func(k int64, v string) string { return v + "!" }); n != 3 || err != nil {
		t.Fatalf("RangeUpdate: %d %v", n, err)
	}
	prevAppended := metricValue(t, d, "sv_wal_records_appended_total")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	want := map[int64]string{1: "one", 3: "three!", 4: "four!", 5: "five!"}
	if durableHash(d2) != modelHash(want) {
		t.Fatalf("recovered content differs: keys %v", d2.Keys())
	}
	if info := d2.Recovery(); info.Truncated || info.CheckpointKeys != 3 {
		t.Fatalf("recovery info: %+v", info)
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	verifyWALMetricIdentities(t, d2, prevAppended)
}

func TestDurableBatchAtomicityAcrossReopen(t *testing.T) {
	// A batch's groups commit under several chunk locks; the log frames them
	// as one unit. With tiny chunks the batch spans many groups, and every
	// reopen must see all of it.
	fs := wal.NewMemFS(2)
	small := WithMapOptions(WithTargetDataVectorSize(4), WithLayerCount(3))
	d, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs), small)
	if err != nil {
		t.Fatal(err)
	}
	var ops []BatchOp[string]
	for k := int64(0); k < 100; k++ {
		ops = append(ops, BatchOp[string]{Key: k * 3, Val: fmt.Sprintf("b%d", k)})
	}
	if _, err := d.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs), small)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 100 {
		t.Fatalf("recovered %d of 100 batch keys", d2.Len())
	}
}

func TestDurableWriteAfterCloseFails(t *testing.T) {
	fs := wal.NewMemFS(3)
	d, err := OpenDurable[string]("/db", StringCodec(), WithWALFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := d.Upsert(1, "late"); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("write after close acknowledged: %v", err)
	}
	if _, err := d.ApplyBatch([]BatchOp[string]{{Key: 2, Val: "late"}}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("batch after close acknowledged: %v", err)
	}
}

// TestDurablePoisonedLogSurfaces pins what a dead disk looks like from the
// facade. The commit hook discards the append error (it runs under a chunk
// lock and has nobody to return it to), so the guarantee rests on the log
// poisoning itself and Commit/Err reporting that: no write is acknowledged
// unless its record reached the log, the failure is sticky, and what a
// reopen finds is only acknowledged data. For each sync policy and each
// kind of call made first after the disk dies:
//
//   - the call fails at once under SyncEveryCommit and SyncOS (each write
//     hands its record to the filesystem before returning); under
//     SyncInterval it may return nil, which is that policy's contract, and
//     the next Sync reports the failure;
//   - every call after that fails, no-op Insert and Remove included;
//   - after the crash settles, the directory reopens to the last synced
//     state, plus at most the one write that was acknowledged but unsynced.
func TestDurablePoisonedLogSurfaces(t *testing.T) {
	type call struct {
		name string
		do   func(d *DurableMap[string]) error
	}
	writes := []call{
		{"Insert", func(d *DurableMap[string]) error { _, err := d.Insert(100, "new"); return err }},
		{"Upsert", func(d *DurableMap[string]) error { _, err := d.Upsert(2, "changed"); return err }},
		{"Remove", func(d *DurableMap[string]) error { _, err := d.Remove(3); return err }},
		{"ApplyBatch", func(d *DurableMap[string]) error {
			_, err := d.ApplyBatch([]BatchOp[string]{{Key: 101, Val: "b"}, {Key: 4, Delete: true}})
			return err
		}},
		{"RangeUpdate", func(d *DurableMap[string]) error {
			_, err := d.RangeUpdate(5, 6, func(_ int64, v string) string { return v + "!" })
			return err
		}},
	}
	syncCall := call{"Sync", func(d *DurableMap[string]) error { return d.Sync() }}
	compactCall := call{"Compact", func(d *DurableMap[string]) error { return d.Compact() }}
	firsts := append(slices.Clone(writes), syncCall, compactCall)
	later := append(slices.Clone(writes),
		call{"no-op Insert", func(d *DurableMap[string]) error { _, err := d.Insert(7, "dup"); return err }},
		call{"no-op Remove", func(d *DurableMap[string]) error { _, err := d.Remove(9999); return err }},
		syncCall, compactCall)

	policies := []struct {
		name   string
		policy SyncPolicy
	}{{"every-commit", SyncEveryCommit}, {"interval", SyncInterval}, {"os", SyncOS}}
	for pi, p := range policies {
		for fi, first := range firsts {
			t.Run(p.name+"/"+first.name, func(t *testing.T) {
				fs := wal.NewMemFS(uint64(31*pi + fi))
				// An hour-long interval keeps the background flusher out of it:
				// under SyncInterval only an explicit Sync touches the disk.
				opts := []DurableOption{WithWALFS(fs), WithSyncPolicy(p.policy), WithSyncInterval(time.Hour)}
				d, err := OpenDurable[string]("/db", StringCodec(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				synced := map[int64]string{}
				for k := int64(1); k <= 8; k++ {
					synced[k] = "v" + strconv.FormatInt(k, 10)
					if _, err := d.Insert(k, synced[k]); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
				// One acknowledged write the disk has not been asked to keep
				// (except under SyncEveryCommit, where the ack is the fsync).
				if _, err := d.Insert(9, "pending"); err != nil {
					t.Fatal(err)
				}
				fs.SetCrashAfter(0) // the next write, fsync, create or rename fails

				mustFail := func(c call, err error) {
					t.Helper()
					if !errors.Is(err, wal.ErrCrashed) {
						t.Fatalf("%s on a dead disk returned %v, want wal.ErrCrashed", c.name, err)
					}
				}
				err1 := first.do(d)
				err2 := d.Sync()
				switch {
				case p.policy == SyncEveryCommit && first.name == "Sync":
					// Nothing is pending, so there is nothing for Sync to fail
					// at; the first write below finds the dead disk.
					if err1 != nil || err2 != nil {
						t.Fatalf("Sync with nothing pending: %v, %v", err1, err2)
					}
				case p.policy == SyncInterval && first.name != "Sync" && first.name != "Compact":
					if err1 != nil {
						mustFail(first, err1)
					}
					mustFail(syncCall, err2)
				default:
					mustFail(first, err1)
					mustFail(syncCall, err2)
				}
				for _, c := range later {
					mustFail(c, c.do(d))
				}

				_ = d.Close() // fails on the dead disk; the map is gone either way
				fs.Crash()
				d2, err := OpenDurable[string]("/db", StringCodec(), opts...)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer d2.Close()
				if p.policy == SyncEveryCommit {
					synced[9] = "pending"
				}
				got := map[int64]string{}
				d2.Ascend(func(k int64, v string) bool { got[k] = v; return true })
				if v, ok := got[9]; ok && v == "pending" {
					delete(got, 9) // acknowledged; kept or lost is the policy's window
					delete(synced, 9)
				}
				if len(got) != len(synced) {
					t.Fatalf("reopened map holds %v, want the synced state %v", got, synced)
				}
				for k, v := range synced {
					if got[k] != v {
						t.Fatalf("reopened key %d = %q, want %q (nothing after the crash was acknowledged)", k, got[k], v)
					}
				}
			})
		}
	}
}

func TestDurableCodecs(t *testing.T) {
	t.Run("bytes", func(t *testing.T) {
		fs := wal.NewMemFS(4)
		d, err := Open("/db", WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		d.Insert(1, []byte{0x00, 0xff, 0x7f})
		d.Insert(2, nil)
		d.Close()
		d2, err := Open("/db", WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if v, ok := d2.Lookup(1); !ok || !bytes.Equal(v, []byte{0x00, 0xff, 0x7f}) {
			t.Fatalf("bytes round trip: %v %v", v, ok)
		}
		if v, ok := d2.Lookup(2); !ok || len(v) != 0 {
			t.Fatalf("empty bytes round trip: %v %v", v, ok)
		}
	})
	t.Run("int64", func(t *testing.T) {
		fs := wal.NewMemFS(5)
		d, err := OpenDurable[int64]("/db", Int64Codec(), WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		d.Insert(1, -1<<62)
		d.Insert(2, 42)
		d.Compact()
		d.Close()
		d2, err := OpenDurable[int64]("/db", Int64Codec(), WithWALFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if v, _ := d2.Lookup(1); v != -1<<62 {
			t.Fatalf("int64 round trip: %d", v)
		}
		if v, _ := d2.Lookup(2); v != 42 {
			t.Fatalf("int64 round trip: %d", v)
		}
	})
}

func TestDurableOSFilesystem(t *testing.T) {
	// One pass over the real filesystem: the osFS seam (create, append,
	// fsync, rename + directory sync, truncate) behind a tmp dir.
	dir := t.TempDir() + "/db"
	d, err := OpenDurable[string](dir, StringCodec())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 200; k++ {
		if _, err := d.Upsert(k, fmt.Sprintf("v%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	d.Remove(100)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable[string](dir, StringCodec())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 199 {
		t.Fatalf("recovered %d keys, want 199", d2.Len())
	}
	if _, ok := d2.Lookup(100); ok {
		t.Fatal("removed key resurrected")
	}
	if info := d2.Recovery(); info.CheckpointKeys != 200 || info.TailRecords != 1 {
		t.Fatalf("recovery info: %+v", info)
	}
}
