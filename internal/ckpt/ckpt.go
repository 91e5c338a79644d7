// Package ckpt serialises MonoTable shard state for fault tolerance —
// the local-filesystem substitute for the original system's HDFS
// checkpoints. A snapshot stores each row's Accumulation and pending
// Intermediate plus a Meta header describing when and how it was taken:
// the epoch (superstep, local pass count, or snapshot-episode number),
// the worker count at snapshot time, and whether the epoch is a
// consistent cut (no in-flight messages — BSP barriers and coordinated
// snapshot episodes) or a per-worker stale snapshot (async/SSP workers
// checkpointing at their own pass boundaries, restorable for selective
// aggregates under Theorem 3's stale-tolerance argument). The binary
// format is length-prefixed little-endian with a CRC32 trailer, so a
// torn or corrupted file is detected and refused rather than silently
// restored. Shard files are epoch-stamped and written atomically (temp
// file + fsync + rename + directory fsync), and each worker keeps its
// two newest epochs — a crash leaving the newest epoch incomplete
// falls back to the previous complete one.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Row is one checkpointed MonoTable row.
type Row struct {
	Key   int64
	Acc   float64
	Inter float64 // pending intermediate delta (identity if none)
}

// Meta describes one shard snapshot.
type Meta struct {
	// Epoch orders snapshots: BSP superstep, async local pass count, or
	// coordinated snapshot-episode number.
	Epoch int
	// Worker is the writing worker's id (-1 on a LoadAll result, which
	// merges shards).
	Worker int
	// Workers is the fleet size at snapshot time; a cut restore needs a
	// shard from every one of them.
	Workers int
	// Cut marks a consistent cut (restorable exactly); a stale snapshot
	// (Cut=false) is only restorable for selective aggregates.
	Cut bool
	// MutEpoch is the mutation-log position the snapshot incorporates: 0
	// for a one-shot run or a session's initial fixpoint, k after the
	// k-th Apply. A restore replays the log entries after MutEpoch.
	MutEpoch int
}

const (
	magic   = "PLCK\x03"
	magicV2 = "PLCK\x02" // pre-session format: no MutEpoch word (read as 0)
)

// Write serialises rows with their Meta header to w.
func Write(w io.Writer, meta Meta, rows []Row) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write([]byte(magic)); err != nil {
		return err
	}
	var buf [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := mw.Write(buf[:])
		return err
	}
	var flags uint64
	if meta.Cut {
		flags |= 1
	}
	for _, v := range []uint64{uint64(meta.Epoch), uint64(meta.Worker), uint64(meta.Workers), flags, uint64(meta.MutEpoch)} {
		if err := put(v); err != nil {
			return err
		}
	}
	if err := put(uint64(len(rows))); err != nil {
		return err
	}
	for _, r := range rows {
		if err := put(uint64(r.Key)); err != nil {
			return err
		}
		if err := put(math.Float64bits(r.Acc)); err != nil {
			return err
		}
		if err := put(math.Float64bits(r.Inter)); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	_, err := w.Write(buf[:4])
	return err
}

// rowPrealloc caps the rows Read preallocates from a header's count.
const rowPrealloc = 1 << 16

// Read deserialises rows and the Meta header, verifying the CRC.
func Read(r io.Reader) ([]Row, Meta, error) {
	var meta Meta
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(tr, head); err != nil {
		return nil, meta, fmt.Errorf("ckpt: short header: %w", err)
	}
	if string(head) != magic && string(head) != magicV2 {
		return nil, meta, fmt.Errorf("ckpt: bad magic %q", head)
	}
	var buf [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(tr, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	metaWords := 5
	if string(head) == magicV2 {
		metaWords = 4 // v2 predates sessions: no MutEpoch word
	}
	hdr := make([]uint64, metaWords)
	for i := range hdr {
		v, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: short meta: %w", err)
		}
		hdr[i] = v
	}
	meta = Meta{Epoch: int(hdr[0]), Worker: int(int64(hdr[1])), Workers: int(hdr[2]), Cut: hdr[3]&1 != 0}
	if metaWords > 4 {
		meta.MutEpoch = int(hdr[4])
	}
	n, err := get()
	if err != nil {
		return nil, meta, fmt.Errorf("ckpt: bad count: %w", err)
	}
	if n > 1<<40 {
		return nil, meta, fmt.Errorf("ckpt: implausible row count %d", n)
	}
	// The count is not trusted for allocation until the rows behind it
	// have been read: preallocate at most rowPrealloc and grow as rows
	// arrive, so a forged count fails as a truncated file, not an OOM.
	rows := make([]Row, 0, min(n, rowPrealloc))
	for i := uint64(0); i < n; i++ {
		k, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: truncated at row %d: %w", i, err)
		}
		a, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: truncated at row %d: %w", i, err)
		}
		d, err := get()
		if err != nil {
			return nil, meta, fmt.Errorf("ckpt: truncated at row %d: %w", i, err)
		}
		rows = append(rows, Row{Key: int64(k), Acc: math.Float64frombits(a), Inter: math.Float64frombits(d)})
	}
	sum := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, meta, fmt.Errorf("ckpt: missing checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(tail[:]) != sum {
		return nil, meta, fmt.Errorf("ckpt: checksum mismatch (corrupt or torn snapshot)")
	}
	return rows, meta, nil
}

// ShardPath names one worker's snapshot for one epoch inside dir.
func ShardPath(dir string, epoch, worker int) string {
	return filepath.Join(dir, fmt.Sprintf("ep%06d-shard-%03d.plck", epoch, worker))
}

// parseShardName inverts ShardPath on a base filename.
func parseShardName(name string) (epoch, worker int, ok bool) {
	if _, err := fmt.Sscanf(name, "ep%06d-shard-%03d.plck", &epoch, &worker); err != nil {
		return 0, 0, false
	}
	return epoch, worker, true
}

// keepEpochs is how many epochs of snapshots each worker retains: the
// one just written plus its predecessor, so a crash that leaves the
// newest epoch incomplete across the fleet can still fall back to the
// previous complete one.
const keepEpochs = 2

// SaveShard atomically writes rows to the worker's shard file for
// meta.Epoch (write to a temp file in the same directory, fsync, rename,
// fsync the directory) and prunes this worker's epochs older than the
// newest keepEpochs. A crash at any point leaves either the new epoch's
// file complete or absent — never torn — and the previous epoch intact.
func SaveShard(dir string, meta Meta, rows []Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := ShardPath(dir, meta.Epoch, meta.Worker)
	tmp, err := os.CreateTemp(dir, "shard-*.tmp")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	if err := Write(bw, meta, rows); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Fsync the directory so the rename itself is durable (the file's
	// contents were synced above; the directory entry still needs it).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	pruneShards(dir, meta.Worker)
	return nil
}

// leaseTTL is how long a read lease stays fresh. A reader that crashed
// without releasing leaves a stale lease file behind; pruning resumes
// once it ages out (and the stale file is cleaned up along the way).
const leaseTTL = 30 * time.Second

// AcquireReadLease marks dir as being read by a restore or re-join in
// progress: while any fresh lease file exists, SaveShard defers its
// keep-2-epochs pruning entirely, so the epoch a concurrent reader
// selected cannot be deleted out from under it between its directory
// scan and its reads (the PR-9 satellite fix). The returned release
// function removes the lease; it is safe to call more than once.
func AcquireReadLease(dir string) (release func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "lease-*.rdl")
	if err != nil {
		return nil, err
	}
	name := f.Name()
	f.Close()
	return func() { _ = os.Remove(name) }, nil
}

// leased reports whether dir has a fresh read lease. Stale lease files
// (crashed readers past leaseTTL) are removed as they are found.
func leased(dir string) bool {
	matches, err := filepath.Glob(filepath.Join(dir, "lease-*.rdl"))
	if err != nil {
		return false
	}
	fresh := false
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			continue
		}
		if time.Since(fi.ModTime()) < leaseTTL {
			fresh = true
		} else {
			_ = os.Remove(m)
		}
	}
	return fresh
}

// pruneShards removes this worker's epochs beyond the newest keepEpochs.
// Best-effort: pruning failures never fail the snapshot that just landed.
// While a read lease is held (a restore or live re-join is scanning the
// directory), pruning is skipped entirely — deferred to the next save.
func pruneShards(dir string, worker int) {
	if leased(dir) {
		return
	}
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ep*-shard-%03d.plck", worker)))
	if err != nil || len(matches) <= keepEpochs {
		return
	}
	type shardFile struct {
		epoch int
		path  string
	}
	var files []shardFile
	for _, m := range matches {
		if e, w, ok := parseShardName(filepath.Base(m)); ok && w == worker {
			files = append(files, shardFile{e, m})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].epoch > files[j].epoch })
	for _, f := range files[min(len(files), keepEpochs):] {
		_ = os.Remove(f.path)
	}
}

// MissingShardError reports an incomplete snapshot set: the directory
// holds shards, but no epoch (for a cut) or no per-worker selection (for
// stale snapshots) covers every worker recorded in the headers.
type MissingShardError struct {
	Dir     string
	Epoch   int   // the newest epoch examined
	Workers int   // fleet size recorded in the shard headers
	Missing []int // worker ids with no usable shard
}

func (e *MissingShardError) Error() string {
	return fmt.Sprintf("ckpt: snapshot in %s is incomplete: epoch %d needs %d workers, missing shards for %v",
		e.Dir, e.Epoch, e.Workers, e.Missing)
}

// LoadAll assembles the most recent restorable snapshot in dir and
// returns its rows plus a Meta describing it (Worker = -1). For
// consistent-cut snapshots it picks the newest epoch for which every
// worker's shard is present; for stale snapshots it takes each worker's
// newest shard (epochs may differ — that is what "stale" licenses) and
// the returned Epoch is the minimum across workers. Any unreadable or
// checksum-failing shard file aborts the load: SaveShard never leaves a
// torn file behind, so corruption here is external damage and must be
// surfaced, not silently skipped. An incomplete worker set yields a
// *MissingShardError.
func LoadAll(dir string) ([]Row, Meta, error) {
	// The lease pins the directory contents: concurrent SaveShard calls
	// keep landing new epochs but defer pruning, so everything the glob
	// below sees stays readable until release.
	release, err := AcquireReadLease(dir)
	if err != nil {
		return nil, Meta{}, err
	}
	defer release()
	matches, err := filepath.Glob(filepath.Join(dir, "ep*-shard-*.plck"))
	if err != nil {
		return nil, Meta{}, err
	}
	if len(matches) == 0 {
		return nil, Meta{}, fmt.Errorf("ckpt: no snapshots in %s", dir)
	}
	type shard struct {
		meta Meta
		rows []Row
	}
	// epoch → worker → shard
	byEpoch := map[int]map[int]shard{}
	workers, cut := 0, false
	first := true
	for _, m := range matches {
		f, err := os.Open(m)
		if errors.Is(err, os.ErrNotExist) {
			// Pruned before the lease was taken (glob-then-open race with
			// a prune already in flight): the file is gone, not corrupt —
			// choose among what remains.
			continue
		}
		if err != nil {
			return nil, Meta{}, err
		}
		rows, meta, err := Read(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, Meta{}, fmt.Errorf("%s: %w", m, err)
		}
		if epoch, worker, ok := parseShardName(filepath.Base(m)); !ok || epoch != meta.Epoch || worker != meta.Worker {
			return nil, Meta{}, fmt.Errorf("ckpt: %s: filename disagrees with header %+v", m, meta)
		}
		if first {
			workers, cut = meta.Workers, meta.Cut
			first = false
		} else if meta.Workers != workers || meta.Cut != cut {
			return nil, Meta{}, fmt.Errorf("ckpt: %s: mixed snapshot kinds in %s (workers %d/%d, cut %v/%v)",
				m, dir, meta.Workers, workers, meta.Cut, cut)
		}
		if byEpoch[meta.Epoch] == nil {
			byEpoch[meta.Epoch] = map[int]shard{}
		}
		byEpoch[meta.Epoch][meta.Worker] = shard{meta, rows}
	}
	if first {
		return nil, Meta{}, fmt.Errorf("ckpt: no snapshots in %s", dir)
	}
	epochs := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))

	var chosen []shard
	outMeta := Meta{Worker: -1, Workers: workers, Cut: cut, MutEpoch: -1}
	if cut {
		// Newest epoch with the full worker set; an incomplete newest
		// epoch (crash mid-episode) falls back to its predecessor.
		for _, e := range epochs {
			if len(byEpoch[e]) == workers {
				for _, s := range byEpoch[e] {
					chosen = append(chosen, s)
				}
				outMeta.Epoch = e
				break
			}
		}
		if chosen == nil {
			newest := epochs[0]
			var missing []int
			for wk := 0; wk < workers; wk++ {
				if _, ok := byEpoch[newest][wk]; !ok {
					missing = append(missing, wk)
				}
			}
			return nil, Meta{}, &MissingShardError{Dir: dir, Epoch: newest, Workers: workers, Missing: missing}
		}
	} else {
		// Per-worker newest shard; every worker must have written at
		// least one.
		newestFor := map[int]shard{}
		for _, e := range epochs {
			for wk, s := range byEpoch[e] {
				if _, ok := newestFor[wk]; !ok {
					newestFor[wk] = s
				}
			}
		}
		var missing []int
		for wk := 0; wk < workers; wk++ {
			if _, ok := newestFor[wk]; !ok {
				missing = append(missing, wk)
			}
		}
		if len(missing) > 0 {
			return nil, Meta{}, &MissingShardError{Dir: dir, Epoch: epochs[0], Workers: workers, Missing: missing}
		}
		minEpoch := -1
		for _, s := range newestFor {
			chosen = append(chosen, s)
			if minEpoch < 0 || s.meta.Epoch < minEpoch {
				minEpoch = s.meta.Epoch
			}
		}
		outMeta.Epoch = minEpoch
	}
	// The restorable mutation-log position is the minimum across the
	// chosen shards: cut snapshots agree by construction; stale shards may
	// straddle an Apply, and re-replaying an already-incorporated entry is
	// sound for the selective aggregates stale restore is limited to
	// (inserts are idempotent improvements, deletions invalidate-and-
	// recompute against the already-mutated EDB).
	for _, s := range chosen {
		if outMeta.MutEpoch < 0 || s.meta.MutEpoch < outMeta.MutEpoch {
			outMeta.MutEpoch = s.meta.MutEpoch
		}
	}
	if outMeta.MutEpoch < 0 {
		outMeta.MutEpoch = 0
	}
	var all []Row
	for _, s := range chosen {
		all = append(all, s.rows...)
	}
	return all, outMeta, nil
}

// readShardFile opens and fully verifies one shard file.
func readShardFile(path string) ([]Row, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	rows, meta, err := Read(bufio.NewReader(f))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("%s: %w", path, err)
	}
	return rows, meta, nil
}

// LoadShard reads one worker's shard for one exact epoch under a read
// lease — the combining-aggregate rollback path of a membership fence,
// where every survivor reloads its own slice of the cut the master
// selected.
func LoadShard(dir string, epoch, worker int) ([]Row, Meta, error) {
	release, err := AcquireReadLease(dir)
	if err != nil {
		return nil, Meta{}, err
	}
	defer release()
	return readShardFile(ShardPath(dir, epoch, worker))
}

// NewestShard reads one worker's newest readable shard under a read
// lease — the selective warm-start path of a live re-join, where the
// replacement worker restores whatever its predecessor last wrote
// (epoch irrelevant: Theorem 3 licenses any stale state). A worker with
// no shard on disk returns os.ErrNotExist; the caller cold-joins.
func NewestShard(dir string, worker int) ([]Row, Meta, error) {
	release, err := AcquireReadLease(dir)
	if err != nil {
		return nil, Meta{}, err
	}
	defer release()
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ep*-shard-%03d.plck", worker)))
	if err != nil {
		return nil, Meta{}, err
	}
	epochs := make([]int, 0, len(matches))
	for _, m := range matches {
		if e, w, ok := parseShardName(filepath.Base(m)); ok && w == worker {
			epochs = append(epochs, e)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	for _, e := range epochs {
		rows, meta, err := readShardFile(ShardPath(dir, e, worker))
		if errors.Is(err, os.ErrNotExist) {
			continue // pruned before the lease landed; fall back
		}
		return rows, meta, err
	}
	return nil, Meta{}, fmt.Errorf("ckpt: no shard for worker %d in %s: %w", worker, dir, os.ErrNotExist)
}
