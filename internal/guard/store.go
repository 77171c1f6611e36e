package guard

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fsys"
	"repro/internal/md"
)

// store keeps a run's checkpoints: each is published with
// fsys.WriteAtomic, so a reader only ever sees complete files — and
// the md format's CRC trailer rejects anything a lying disk mangles
// after that. All filesystem access goes through the fsys seam, so a
// chaos campaign can stand a failing disk under the store and check
// the promise instead of assuming it.
type store struct {
	dir  string
	keep int
	fs   fsys.FS
	// saved holds the steps this store published. A checkpoint
	// directory may hold another run's files (a reused
	// -checkpoint-dir), so rollback and retention look only at these:
	// another run's state is never restored as this run's, and its
	// files never count against this run's retention.
	saved map[int]bool
}

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".mdcp"
)

func newStore(dir string, keep int, fs fsys.FS) (*store, error) {
	fs = fsys.OrOS(fs)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("guard: checkpoint dir: %w", err)
	}
	if keep < 1 {
		keep = 1
	}
	return &store{dir: dir, keep: keep, fs: fs, saved: make(map[int]bool)}, nil
}

// path returns the final name for a checkpoint at the given step.
func (st *store) path(step int) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%09d%s", ckptPrefix, step, ckptSuffix))
}

// save atomically persists the system state as ckpt-<steps>.mdcp and
// prunes this run's files beyond the retention bound. On any failure
// the previously persisted checkpoints are untouched.
func (st *store) save(sys *md.System[float64]) error {
	err := fsys.WriteAtomic(st.fs, st.path(sys.Steps), func(w io.Writer) error {
		return md.WriteCheckpoint(w, sys)
	})
	if err != nil {
		return err
	}
	st.saved[sys.Steps] = true
	st.prune()
	return nil
}

// list returns the steps of all well-named checkpoint files, newest
// first.
func (st *store) list() []int {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var steps []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix))
		if err != nil || n < 0 {
			continue
		}
		steps = append(steps, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	return steps
}

// own returns the steps of this run's checkpoints still on disk,
// newest first.
func (st *store) own() []int {
	var steps []int
	for _, s := range st.list() {
		if st.saved[s] {
			steps = append(steps, s)
		}
	}
	return steps
}

// prune removes this run's checkpoints beyond the newest keep.
func (st *store) prune() {
	steps := st.own()
	for _, s := range steps[min(st.keep, len(steps)):] {
		if st.fs.Remove(st.path(s)) == nil {
			delete(st.saved, s)
		}
	}
}

// LatestCheckpoint returns the newest CRC-valid checkpoint in dir, read
// through fs (nil means the real filesystem), or nil when the
// directory holds none (including when it does not exist). Corrupt or
// truncated files are reported through onCorrupt and skipped — the same never-trust-a-bad-file discipline the in-run
// recovery path uses. This is the discovery seam the serving layer
// resumes interrupted jobs through: it composes a per-job checkpoint
// directory and asks for the latest trustworthy state without
// constructing a Supervisor first, so every file in dir is trusted to
// belong to the job.
func LatestCheckpoint(fs fsys.FS, dir string, onCorrupt func(name string, err error)) *md.System[float64] {
	st := &store{dir: dir, fs: fsys.OrOS(fs)}
	return st.recoverLatest(st.list(), onCorrupt)
}

// recoverLatest loads the newest of the checkpoints at steps (newest
// first) that passes the md reader's CRC and structural validation;
// files that fail are reported through onCorrupt and skipped — a
// corrupt checkpoint is never trusted, an older good one wins. Returns
// nil if no trustworthy checkpoint exists.
func (st *store) recoverLatest(steps []int, onCorrupt func(name string, err error)) *md.System[float64] {
	for _, step := range steps {
		p := st.path(step)
		f, err := st.fs.Open(p)
		if err != nil {
			onCorrupt(filepath.Base(p), err)
			continue
		}
		sys, err := md.ReadCheckpoint(f)
		_ = f.Close() // read path; the CRC trailer already vouched for the payload
		if err != nil {
			onCorrupt(filepath.Base(p), err)
			continue
		}
		return sys
	}
	return nil
}
