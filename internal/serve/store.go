package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fsys"
	"repro/internal/guard"
	"repro/internal/md"
	"repro/internal/mdrun"
)

// Store is the durable half of the server: one directory per job under
// <root>/jobs, holding
//
//	spec.json    the admission record (tenant, idempotency key,
//	             normalized spec) — written before the job is offered
//	             to the fleet, so an accepted job survives the process
//	sreport.json the terminal record (status, summary, incidents) —
//	             written exactly once, at completion
//	ckpt/        the job's guard checkpoint directory
//
// Both JSON files are published with fsys.WriteAtomic, the protocol
// the guard checkpoint store uses too — temp file in the target
// directory, fsync, rename, directory fsync — so a reader (including a
// restarted server) only ever sees complete files. A job directory
// with a valid spec and no terminal record is, by definition,
// incomplete: that is the whole recovery contract, and it makes
// "crashed before the report rename" and "crashed mid-run" the same
// case. All filesystem access goes through the fsys seam so chaos
// campaigns can fail any operation on schedule.
type Store struct {
	root string
	fs   fsys.FS
}

// JobRecord is the admission record persisted as spec.json.
type JobRecord struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Key is the idempotency key, empty if the client sent none. The
	// (tenant, key) index is rebuilt from these records at startup.
	Key  string `json:"key,omitempty"`
	Spec Spec   `json:"spec"`
}

// TerminalRecord is the completion record persisted as sreport.json.
type TerminalRecord struct {
	ID     string `json:"id"`
	Status string `json:"status"` // StatusDone or StatusFailed
	Error  string `json:"error,omitempty"`

	Summary *mdrun.Summary `json:"summary,omitempty"`
	// Incidents is the flattened guard/fleet incident tally ("nan: 1,
	// rollback: 1"); empty for a clean run.
	Incidents string `json:"incidents,omitempty"`
	// Attempts counts fleet-level guard runs (>1 means resubmission).
	Attempts int `json:"attempts,omitempty"`
	// Resumed marks a job that finished after at least one
	// checkpoint-resume across a server restart.
	Resumed bool `json:"resumed,omitempty"`
}

// NewStore opens (creating if needed) the store rooted at dir, over
// the filesystem seam fs (nil means the real one; chaos campaigns pass
// a failing disk to stand it under the whole serving stack).
func NewStore(dir string, fs fsys.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: store needs a data directory")
	}
	fs = fsys.OrOS(fs)
	if err := fs.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: store root: %w", err)
	}
	return &Store{root: dir, fs: fs}, nil
}

// jobDir returns the directory for a job ID.
func (st *Store) jobDir(id string) string { return filepath.Join(st.root, "jobs", id) }

// CheckpointDir returns the guard checkpoint directory for a job ID —
// the per-job composition the resume path hands to
// guard.LatestCheckpoint.
func (st *Store) CheckpointDir(id string) string { return filepath.Join(st.jobDir(id), "ckpt") }

// FS exposes the store's filesystem seam so the rest of the serving
// stack (guard checkpoint store, resume scan) runs over the same disk.
func (st *Store) FS() fsys.FS { return st.fs }

// PutSpec persists the admission record for a new job. The job
// directory is created here; failure removes it again, so a failed
// admission leaves no half-persisted job for the recovery scan to
// resurrect.
func (st *Store) PutSpec(rec JobRecord) error {
	dir := st.jobDir(rec.ID)
	if err := st.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	if err := st.writeJSON(dir, "spec.json", rec); err != nil {
		_ = st.fs.RemoveAll(dir)
		return err
	}
	return nil
}

// PutTerminal persists the completion record, flipping the job to
// complete atomically (the rename is the commit point).
func (st *Store) PutTerminal(rec TerminalRecord) error {
	return st.writeJSON(st.jobDir(rec.ID), "sreport.json", rec)
}

// Remove deletes a job directory entirely — the rollback for a job
// that was persisted but then shed by the fleet admission queue (the
// client saw 429; a restart must not resurrect it).
func (st *Store) Remove(id string) error {
	return st.fs.RemoveAll(st.jobDir(id))
}

// GetTerminal loads the completion record, or nil for an incomplete
// job.
func (st *Store) GetTerminal(id string) (*TerminalRecord, error) {
	var rec TerminalRecord
	ok, err := st.readJSON(st.jobDir(id), "sreport.json", &rec)
	if err != nil || !ok {
		return nil, err
	}
	return &rec, nil
}

// Probe checks that the store can still complete a full atomic write:
// temp file, write, fsync, remove. The degraded-mode recovery loop
// calls this before accepting admissions again — a disk that fails
// admissions must demonstrably hold a byte before the server trusts
// it with a job.
func (st *Store) Probe() error {
	f, err := st.fs.CreateTemp(filepath.Join(st.root, "jobs"), ".probe-*")
	if err != nil {
		return fmt.Errorf("serve: probe: %w", err)
	}
	tmp := f.Name()
	p := []byte("probe")
	n, werr := f.Write(p)
	if werr == nil && n != len(p) {
		werr = io.ErrShortWrite
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	_ = st.fs.Remove(tmp)
	if werr != nil {
		return fmt.Errorf("serve: probe: %w", werr)
	}
	return nil
}

// ScannedJob is one job found on disk at startup. Terminal is nil for
// an incomplete job, in which case System is the state to resume from
// (nil means start over from step 0 — the job died before its first
// checkpoint survived).
type ScannedJob struct {
	Record   JobRecord
	Terminal *TerminalRecord
	System   *md.System[float64]
	// CorruptCheckpoints counts checkpoint files that failed CRC or
	// structural validation during discovery and were skipped.
	CorruptCheckpoints int
}

// errParse marks a record that was read fully but failed to parse —
// a torn or corrupt file, as opposed to a disk that refused the read.
// The recovery scan skips the former (nothing trustworthy was ever
// promised under that name) and propagates the latter (an acknowledged
// job may be hiding behind a transient I/O error; silently dropping it
// would break the no-acked-job-lost invariant).
var errParse = errors.New("serve: unparseable record")

// Scan walks the jobs directory and returns every persisted job —
// complete and incomplete, the latter with its latest trustworthy
// checkpoint loaded — plus the highest numeric job sequence seen:
// everything a restarted server needs to rebuild its in-memory view
// (status map, idempotency index, ID sequencing, resume set).
// Directories with a missing or corrupt spec.json are skipped (a crash
// between mkdir and the spec rename leaves exactly that shape, and
// nothing was promised to any client for it); a spec.json the disk
// refuses to read is an error — startup fails loudly rather than
// silently forgetting a job that was acknowledged.
func (st *Store) Scan() (jobs []ScannedJob, maxSeq int, err error) {
	entries, err := st.fs.ReadDir(filepath.Join(st.root, "jobs"))
	if err != nil {
		return nil, 0, fmt.Errorf("serve: scanning jobs: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if seq, ok := jobSeq(name); ok && seq > maxSeq {
			maxSeq = seq
		}
		var rec JobRecord
		ok, rerr := st.readJSON(st.jobDir(name), "spec.json", &rec)
		if rerr != nil && !errors.Is(rerr, errParse) {
			return nil, 0, fmt.Errorf("serve: scanning job %s: %w", name, rerr)
		}
		if rerr != nil || !ok || rec.ID != name {
			continue // orphan or corrupt admission record: never promised
		}
		sj := ScannedJob{Record: rec}
		var term TerminalRecord
		tok, terr := st.readJSON(st.jobDir(name), "sreport.json", &term)
		if terr != nil && !errors.Is(terr, errParse) {
			return nil, 0, fmt.Errorf("serve: scanning job %s: %w", name, terr)
		}
		if terr == nil && tok {
			sj.Terminal = &term
		} else {
			sj.System = guard.LatestCheckpoint(st.fs, st.CheckpointDir(name), func(string, error) {
				sj.CorruptCheckpoints++
			})
		}
		jobs = append(jobs, sj)
	}
	return jobs, maxSeq, nil
}

// jobSeq extracts the numeric suffix of a "job-%06d" name.
func jobSeq(name string) (int, bool) {
	s, ok := strings.CutPrefix(name, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// JobID formats a sequence number as a job ID.
func JobID(seq int) string { return fmt.Sprintf("job-%06d", seq) }

// writeJSON atomically publishes v as <dir>/<name> with
// fsys.WriteAtomic, so a crash at any byte leaves either the old file
// or the new one, never a torn read for the recovery scan.
func (st *Store) writeJSON(dir, name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("serve: encoding %s: %w", name, err)
	}
	b = append(b, '\n')
	return fsys.WriteAtomic(st.fs, filepath.Join(dir, name), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// readJSON loads <dir>/<name> into v; (false, nil) when the file does
// not exist, an errParse-wrapping error when it exists but does not
// parse, and a plain error when the disk refused the read.
func (st *Store) readJSON(dir, name string, v any) (bool, error) {
	b, err := st.fs.ReadFile(filepath.Join(dir, name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("serve: reading %s: %w", name, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return false, fmt.Errorf("serve: parsing %s: %w (%w)", name, err, errParse)
	}
	return true, nil
}
