package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func cutMeta(epoch, worker, workers int) Meta {
	return Meta{Epoch: epoch, Worker: worker, Workers: workers, Cut: true}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rows := []Row{
		{Key: 0, Acc: 1.5, Inter: math.Inf(1)},
		{Key: 42, Acc: -3, Inter: 0.25},
		{Key: 1<<40 + 7, Acc: 0, Inter: 0},
	}
	meta := Meta{Epoch: 7, Worker: 2, Workers: 5, Cut: true}
	var buf bytes.Buffer
	if err := Write(&buf, meta, rows); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range rows {
		if got[i].Key != rows[i].Key || got[i].Acc != rows[i].Acc || got[i].Inter != rows[i].Inter {
			t.Errorf("row %d = %+v, want %+v", i, got[i], rows[i])
		}
	}
}

func TestReadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Meta{Worker: 0, Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	got, meta, err := Read(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	if meta.Cut {
		t.Error("stale meta round-tripped as cut")
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, cutMeta(1, 0, 1), []Row{{Key: 1, Acc: 2, Inter: 3}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a payload byte.
	bad := append([]byte(nil), data...)
	bad[len(bad)-10] ^= 0xff
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted payload should fail the checksum")
	}

	// Truncate (torn write).
	if _, _, err := Read(bytes.NewReader(data[:len(data)-6])); err == nil {
		t.Error("truncated snapshot should fail")
	}

	// Bad magic (includes any v1-format file: the version byte differs).
	bad = append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
}

// TestReadHugeRowCount: a 53-byte file — magic, five meta words and a
// row count of 2^38 with no rows behind it — passes the plausibility
// guard. Preallocating that count killed the process with an
// unrecoverable out-of-memory error before the checksum was read; it
// must fail as a truncated file instead.
func TestReadHugeRowCount(t *testing.T) {
	data := []byte(magic)
	data = append(data, make([]byte, 5*8)...)
	data = binary.LittleEndian.AppendUint64(data, 1<<38)
	if len(data) != 53 {
		t.Fatalf("header is %d bytes, want 53", len(data))
	}
	if _, _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("a 2^38 row count with no rows should fail")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Key: rng.Int63(), Acc: rng.NormFloat64(), Inter: rng.NormFloat64()}
		}
		meta := Meta{Epoch: rng.Intn(1 << 20), Worker: rng.Intn(64), Workers: 64, Cut: rng.Intn(2) == 0}
		var buf bytes.Buffer
		if err := Write(&buf, meta, rows); err != nil {
			return false
		}
		got, gotMeta, err := Read(&buf)
		if err != nil || len(got) != len(rows) || gotMeta != meta {
			return false
		}
		for i := range rows {
			if got[i] != rows[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSaveLoadShards(t *testing.T) {
	dir := t.TempDir()
	if err := SaveShard(dir, cutMeta(1, 0, 2), []Row{{Key: 0, Acc: 1, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveShard(dir, cutMeta(1, 1, 2), []Row{{Key: 1, Acc: 2, Inter: 0.5}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || meta.Epoch != 1 || !meta.Cut || meta.Workers != 2 {
		t.Fatalf("rows = %v meta = %+v", all, meta)
	}
	// A newer complete epoch supersedes the old one.
	if err := SaveShard(dir, cutMeta(2, 0, 2), []Row{{Key: 9, Acc: 9, Inter: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveShard(dir, cutMeta(2, 1, 2), []Row{{Key: 8, Acc: 8, Inter: 8}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err = LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int64]bool{}
	for _, r := range all {
		keys[r.Key] = true
	}
	if !keys[9] || !keys[8] || keys[0] || meta.Epoch != 2 {
		t.Errorf("epoch 2 not selected: rows %v meta %+v", all, meta)
	}
	// No leftover temp files.
	tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmp) != 0 {
		t.Errorf("temp files left behind: %v", tmp)
	}
}

// TestIncompleteEpochFallsBack models a crash mid-episode: worker 0
// finished epoch 3, worker 1 did not. The restore must come from the
// last complete epoch, not mix epochs of a consistent cut.
func TestIncompleteEpochFallsBack(t *testing.T) {
	dir := t.TempDir()
	for _, wk := range []int{0, 1} {
		if err := SaveShard(dir, cutMeta(2, wk, 2), []Row{{Key: int64(wk), Acc: 2, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveShard(dir, cutMeta(3, 0, 2), []Row{{Key: 100, Acc: 3, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 2 {
		t.Fatalf("expected fallback to epoch 2, got %+v", meta)
	}
	for _, r := range all {
		if r.Key == 100 {
			t.Fatalf("row from incomplete epoch 3 leaked into restore: %v", all)
		}
	}
}

// TestCrashMidWriteLeavesPreviousReadable simulates dying partway
// through SaveShard: a stale partial temp file sits next to a complete
// previous snapshot. The previous snapshot must load untouched and the
// torn temp file must be ignored (it is not a .plck shard).
func TestCrashMidWriteLeavesPreviousReadable(t *testing.T) {
	dir := t.TempDir()
	if err := SaveShard(dir, cutMeta(1, 0, 1), []Row{{Key: 5, Acc: 5, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	// The crash: half a frame written to the temp file, never renamed.
	var buf bytes.Buffer
	if err := Write(&buf, cutMeta(2, 0, 1), []Row{{Key: 6, Acc: 6, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()/2]
	if err := os.WriteFile(filepath.Join(dir, "shard-123.tmp"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatalf("previous snapshot unreadable after simulated crash: %v", err)
	}
	if len(all) != 1 || all[0].Key != 5 || meta.Epoch != 1 {
		t.Fatalf("restored wrong state: %v %+v", all, meta)
	}
}

// TestTornShardRefused: a .plck file that fails its checksum must abort
// the whole load — never be silently skipped or restored.
func TestTornShardRefused(t *testing.T) {
	dir := t.TempDir()
	for _, wk := range []int{0, 1} {
		if err := SaveShard(dir, cutMeta(1, wk, 2), []Row{{Key: int64(wk), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	path := ShardPath(dir, 1, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadAll(dir); err == nil {
		t.Fatal("torn shard silently restored")
	}
}

func TestLoadAllMissing(t *testing.T) {
	if _, _, err := LoadAll(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
}

func TestLoadAllReportsMissingShard(t *testing.T) {
	dir := t.TempDir()
	// Worker 1 of 3 never snapshotted at all.
	for _, wk := range []int{0, 2} {
		if err := SaveShard(dir, cutMeta(1, wk, 3), []Row{{Key: int64(wk), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := LoadAll(dir)
	var miss *MissingShardError
	if !errors.As(err, &miss) {
		t.Fatalf("expected MissingShardError, got %v", err)
	}
	if miss.Workers != 3 || len(miss.Missing) != 1 || miss.Missing[0] != 1 {
		t.Fatalf("wrong report: %+v", miss)
	}
}

func TestLoadAllStaleTakesNewestPerWorker(t *testing.T) {
	dir := t.TempDir()
	stale := func(epoch, wk int) Meta { return Meta{Epoch: epoch, Worker: wk, Workers: 2} }
	if err := SaveShard(dir, stale(4, 0), []Row{{Key: 40, Acc: 4, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveShard(dir, stale(6, 0), []Row{{Key: 60, Acc: 6, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveShard(dir, stale(5, 1), []Row{{Key: 51, Acc: 5, Inter: 0}}); err != nil {
		t.Fatal(err)
	}
	all, meta, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int64]bool{}
	for _, r := range all {
		keys[r.Key] = true
	}
	if !keys[60] || !keys[51] || keys[40] {
		t.Fatalf("stale selection wrong: %v", all)
	}
	if meta.Cut || meta.Epoch != 5 {
		t.Fatalf("meta = %+v, want stale epoch 5 (the covered frontier)", meta)
	}
	// Missing worker in the stale family is reported too.
	dir2 := t.TempDir()
	if err := SaveShard(dir2, stale(1, 0), nil); err != nil {
		t.Fatal(err)
	}
	var miss *MissingShardError
	if _, _, err := LoadAll(dir2); !errors.As(err, &miss) {
		t.Fatalf("expected MissingShardError for absent stale worker, got %v", err)
	}
}

func TestLoadAllRejectsMixedKinds(t *testing.T) {
	dir := t.TempDir()
	if err := SaveShard(dir, cutMeta(1, 0, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := SaveShard(dir, Meta{Epoch: 1, Worker: 1, Workers: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadAll(dir); err == nil {
		t.Error("mixed cut/stale snapshot families should be rejected")
	}
}

func TestPruneKeepsTwoEpochs(t *testing.T) {
	dir := t.TempDir()
	for e := 1; e <= 5; e++ {
		if err := SaveShard(dir, cutMeta(e, 0, 1), []Row{{Key: int64(e), Acc: 1, Inter: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "ep*-shard-000.plck"))
	if len(matches) != keepEpochs {
		t.Fatalf("prune kept %v", matches)
	}
	_, meta, err := LoadAll(dir)
	if err != nil || meta.Epoch != 5 {
		t.Fatalf("newest epoch lost after prune: %+v %v", meta, err)
	}
}
