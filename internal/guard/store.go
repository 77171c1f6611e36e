package guard

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fsys"
	"repro/internal/md"
)

// store publishes a run's checkpoints: each is written with
// fsys.WriteAtomic, so a reader only ever sees complete files — and
// the md format's CRC trailer rejects anything a lying disk mangles
// after that. The run never reads them back (rollback restores the
// in-memory snapshot); LatestCheckpoint does, to resume a job in a new
// process. All filesystem access goes through the fsys seam, so a
// chaos campaign can stand a failing disk under the store and check
// the promise instead of assuming it.
type store struct {
	dir  string
	keep int
	fs   fsys.FS
	// steps holds the steps this store published and has not yet
	// pruned, oldest first. A checkpoint directory may hold another
	// run's files (a reused -checkpoint-dir), so retention counts and
	// removes only these: another run's files never count against this
	// run's retention, and no save has to list the directory.
	steps []int
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
	return &store{dir: dir, keep: keep, fs: fs}, nil
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
	st.steps = append(st.steps, sys.Steps)
	st.prune()
	return nil
}

// prune removes this run's checkpoints beyond the newest keep. A file
// whose Remove fails stays listed, so the next save retries it; one
// already gone counts as removed.
func (st *store) prune() {
	excess := len(st.steps) - st.keep
	kept := st.steps[:0]
	for i, s := range st.steps {
		if i < excess {
			if err := st.fs.Remove(st.path(s)); err == nil || errors.Is(err, iofs.ErrNotExist) {
				continue
			}
		}
		kept = append(kept, s)
	}
	st.steps = kept
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

// LatestCheckpoint returns the newest checkpoint in dir, read through
// fs (nil means the real filesystem), that passes the md reader's CRC
// and structural validation, or nil when the directory holds none
// (including when it does not exist). Corrupt or truncated files are
// reported through onCorrupt and skipped: a corrupt checkpoint is
// never trusted, an older good one wins. This is the discovery seam
// the serving layer resumes interrupted jobs through: it composes a
// per-job checkpoint directory and asks for the latest trustworthy
// state without constructing a Supervisor first, so every file in dir
// is trusted to belong to the job.
func LatestCheckpoint(fs fsys.FS, dir string, onCorrupt func(name string, err error)) *md.System[float64] {
	st := &store{dir: dir, fs: fsys.OrOS(fs)}
	for _, step := range st.list() {
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
