package main

import (
	iofs "io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/fsys"
	"repro/internal/serve"
)

// tracedFS is the fsys.FS the traced service pass hands the server: it
// records every call of the job store and the guard checkpoints as a
// span carrying the job it belongs to, read from the job directory in
// the path.
type tracedFS struct {
	inner fsys.FS
	rec   *recorder
}

func (t tracedFS) record(op, path string, start time.Time, bytes int) {
	t.rec.add(span{
		Name: "fs." + op, Path: path, Start: t.rec.at(start), End: t.rec.at(time.Now()),
		Parent: noParent, Job: jobOf(path), Bytes: int64(bytes),
	})
}

func (t tracedFS) MkdirAll(path string, perm iofs.FileMode) error {
	start := time.Now()
	err := t.inner.MkdirAll(path, perm)
	t.record("mkdir", path, start, 0)
	return err
}

func (t tracedFS) CreateTemp(dir, pattern string) (fsys.File, error) {
	start := time.Now()
	f, err := t.inner.CreateTemp(dir, pattern)
	t.record("create", dir, start, 0)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: f, fs: t}, nil
}

func (t tracedFS) Open(name string) (fsys.File, error) {
	start := time.Now()
	f, err := t.inner.Open(name)
	t.record("open", name, start, 0)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: f, fs: t}, nil
}

func (t tracedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.ReadFile(name)
	t.record("readfile", name, start, len(b))
	return b, err
}

func (t tracedFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	start := time.Now()
	d, err := t.inner.ReadDir(name)
	t.record("readdir", name, start, 0)
	return d, err
}

func (t tracedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := t.inner.Rename(oldpath, newpath)
	t.record("rename", newpath, start, 0)
	return err
}

func (t tracedFS) Remove(name string) error {
	start := time.Now()
	err := t.inner.Remove(name)
	t.record("remove", name, start, 0)
	return err
}

func (t tracedFS) RemoveAll(path string) error {
	start := time.Now()
	err := t.inner.RemoveAll(path)
	t.record("removeall", path, start, 0)
	return err
}

// tracedFile records the calls on one open file.
type tracedFile struct {
	fsys.File
	fs tracedFS
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.record("write", f.Name(), start, n)
	return n, err
}

func (f tracedFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.fs.record("read", f.Name(), start, n)
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.record("sync", f.Name(), start, 0)
	return err
}

func (f tracedFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	f.fs.record("close", f.Name(), start, 0)
	return err
}

// jobOf returns the sequence number of the job directory path lies in
// (…/jobs/job-000042/…), or noJob.
func jobOf(path string) int32 {
	for _, part := range strings.Split(filepath.ToSlash(path), "/") {
		if seq, ok := jobSeq(part); ok {
			return seq
		}
	}
	return noJob
}

// jobSeq parses a job ID the server minted.
func jobSeq(id string) (int32, bool) {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(digits, 10, 32)
	return int32(n), err == nil && n >= 0
}

// fsJobStats is what the filesystem spans say about the done jobs.
type fsJobStats struct {
	ops, bytes, checkpoints float64   // medians per job
	syncs                   []float64 // ms, every fsync of a job
	busy, jobTime           float64   // ms: filesystem time and job latency, summed over jobs
}

// jobSpans adds a root span per done job (due → terminal, with admit
// and queue children), makes the job's filesystem spans recorded since
// index from its children, and reduces them per job.
func jobSpans(rec *recorder, from int, jobs []*jobRun) fsJobStats {
	roots := make(map[int32]int32)
	for _, j := range jobs {
		seq, ok := jobSeq(j.id)
		if !ok || j.status != serve.StatusDone {
			continue
		}
		root := rec.add(span{Name: "job", Start: rec.at(j.due), End: rec.at(j.terminal), Parent: noParent, Job: seq})
		rec.add(span{Name: "admit", Start: rec.at(j.due), End: rec.at(j.admitted), Parent: root, Job: seq})
		rec.add(span{Name: "queue", Start: rec.at(j.admitted), End: rec.at(j.progress), Parent: root, Job: seq})
		roots[seq] = root
	}
	rec.adopt(from, roots)

	type perJob struct{ ops, bytes, checkpoints int }
	counts := make(map[int32]*perJob)
	var st fsJobStats
	for _, s := range rec.snapshot()[from:] {
		if _, ok := roots[s.Job]; !ok || !strings.HasPrefix(s.Name, "fs.") {
			continue
		}
		c := counts[s.Job]
		if c == nil {
			c = &perJob{}
			counts[s.Job] = c
		}
		c.ops++
		if s.Name == "fs.write" {
			c.bytes += int(s.Bytes)
		}
		if s.Name == "fs.rename" && filepath.Base(filepath.Dir(s.Path)) == "ckpt" {
			c.checkpoints++
		}
		if s.Name == "fs.sync" {
			st.syncs = append(st.syncs, ms(s.dur()))
		}
		st.busy += ms(s.dur())
	}
	var ops, bytes, ckpts []float64
	for _, c := range counts {
		ops = append(ops, float64(c.ops))
		bytes = append(bytes, float64(c.bytes))
		ckpts = append(ckpts, float64(c.checkpoints))
	}
	st.ops, st.bytes, st.checkpoints = median(ops), median(bytes), median(ckpts)
	for _, j := range jobs {
		if j.status == serve.StatusDone {
			st.jobTime += ms(j.latency())
		}
	}
	return st
}
