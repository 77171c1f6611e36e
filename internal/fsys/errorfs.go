package fsys

import (
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/faults"
)

// The fault sites of the filesystem seam: one per operation class, so
// a schedule can say "the 3rd fsync fails" or "every rename from call
// 5 is torn" independently of how many of the other operations the
// store happens to issue.
const (
	SiteMkdir   faults.Site = "fs-mkdir"
	SiteCreate  faults.Site = "fs-create"
	SiteWrite   faults.Site = "fs-write"
	SiteSync    faults.Site = "fs-sync"
	SiteRename  faults.Site = "fs-rename"
	SiteRemove  faults.Site = "fs-remove" // Remove and RemoveAll share one counter
	SiteReadDir faults.Site = "fs-readdir"
	SiteOpen    faults.Site = "fs-open"
	SiteRead    faults.Site = "fs-read" // Read and ReadFile share one counter
)

// Sites lists every filesystem fault site — the catalog a schedule
// generator samples from.
func Sites() []faults.Site {
	return []faults.Site{
		SiteMkdir, SiteCreate, SiteWrite, SiteSync, SiteRename,
		SiteRemove, SiteReadDir, SiteOpen, SiteRead,
	}
}

// Faulty wraps inner so that every operation first consults the
// injector at its site. Kind semantics per operation:
//
//   - Error fails the operation with faults.ErrInjected;
//   - ENOSPC fails it with an error wrapping syscall.ENOSPC — on
//     Write, half the buffer lands first, the torn-temp-file shape of
//     a disk filling up mid-checkpoint;
//   - ShortWrite (Write only) writes half the buffer and reports the
//     short count with a nil error — the lying writer that CRC
//     trailers and explicit length checks exist to catch;
//   - TornRename (Rename only) publishes the first half of the source
//     at the destination, removes the source, and fails the call —
//     power loss mid-publish; the caller knows it failed, but the
//     directory now holds garbage every later reader must reject;
//   - Delay sleeps Fault.Delay, then performs the operation;
//   - Panic panics (the store's callers run under recover boundaries);
//   - anything else passes through.
//
// A nil injector returns inner itself: the production path never pays
// for the wrapper it does not use.
func Faulty(inner FS, in faults.Injector) FS {
	if in == nil {
		return inner
	}
	return &faultFS{inner: OrOS(inner), in: in}
}

type faultFS struct {
	inner FS
	in    faults.Injector
}

// op consults the injector at site and executes the generic kinds
// (see inject).
func (e *faultFS) op(site faults.Site, name string) error {
	return inject(faults.Fire(e.in, site), site, name)
}

// inject executes the kinds every operation shares for a fault that
// fired at site on name (nil: none fired): Error and ENOSPC fail it,
// Delay sleeps, Panic panics, anything else passes through. A non-nil
// error means the operation must fail without touching the inner
// filesystem. Rename handles its own TornRename first; Write uses
// faults.NewWriter, which owns the write-only kinds.
func inject(f *faults.Fault, site faults.Site, name string) error {
	if f == nil {
		return nil
	}
	switch f.Kind {
	case faults.Error:
		return fmt.Errorf("fsys: %s %s: %w", site, name, faults.ErrInjected)
	case faults.ENOSPC:
		return fmt.Errorf("fsys: %s %s: %w", site, name, syscall.ENOSPC)
	case faults.Delay:
		time.Sleep(f.Delay)
	case faults.Panic:
		panic(fmt.Sprintf("fsys: injected panic (site %s, %s)", site, name))
	}
	return nil
}

func (e *faultFS) MkdirAll(path string, perm iofs.FileMode) error {
	if err := e.op(SiteMkdir, path); err != nil {
		return err
	}
	return e.inner.MkdirAll(path, perm)
}

func (e *faultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := e.op(SiteCreate, dir); err != nil {
		return nil, err
	}
	f, err := e.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: e.in, w: faults.NewWriter(f, e.in, SiteWrite)}, nil
}

func (e *faultFS) Open(name string) (File, error) {
	if err := e.op(SiteOpen, name); err != nil {
		return nil, err
	}
	f, err := e.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, in: e.in, w: faults.NewWriter(f, e.in, SiteWrite)}, nil
}

func (e *faultFS) ReadFile(name string) ([]byte, error) {
	if err := e.op(SiteRead, name); err != nil {
		return nil, err
	}
	return e.inner.ReadFile(name)
}

func (e *faultFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	if err := e.op(SiteReadDir, name); err != nil {
		return nil, err
	}
	return e.inner.ReadDir(name)
}

func (e *faultFS) Rename(oldpath, newpath string) error {
	f := faults.Fire(e.in, SiteRename)
	if f != nil && f.Kind == faults.TornRename {
		e.tearRename(oldpath, newpath)
		return fmt.Errorf("fsys: %s %s: torn by injected crash: %w", SiteRename, newpath, faults.ErrInjected)
	}
	if err := inject(f, SiteRename, newpath); err != nil {
		return err
	}
	return e.inner.Rename(oldpath, newpath)
}

// tearRename leaves the aftermath of a crash mid-publish: the first
// half of the source lands at the destination, the source vanishes.
// Best-effort by construction — it is simulating a filesystem that has
// already stopped honoring contracts.
func (e *faultFS) tearRename(oldpath, newpath string) {
	b, err := e.inner.ReadFile(oldpath)
	if err == nil {
		if f, cerr := e.inner.CreateTemp(filepath.Dir(newpath), ".torn-*"); cerr == nil {
			tmp := f.Name()
			_, _ = f.Write(b[:len(b)/2]) //mdlint:ignore closeerr deliberately torn garbage; its write error is part of the simulated crash
			_ = f.Close()
			_ = e.inner.Rename(tmp, newpath)
		}
	}
	_ = e.inner.Remove(oldpath)
}

func (e *faultFS) Remove(name string) error {
	if err := e.op(SiteRemove, name); err != nil {
		return err
	}
	return e.inner.Remove(name)
}

func (e *faultFS) RemoveAll(path string) error {
	if err := e.op(SiteRemove, path); err != nil {
		return err
	}
	return e.inner.RemoveAll(path)
}

// faultFile injects write/sync/read faults on an open handle; w is
// the handle wrapped by faults.NewWriter at SiteWrite.
type faultFile struct {
	File
	in faults.Injector
	w  io.Writer
}

func (f *faultFile) Write(p []byte) (int, error) { return f.w.Write(p) }

func (f *faultFile) Sync() error {
	if err := inject(faults.Fire(f.in, SiteSync), SiteSync, f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err := inject(faults.Fire(f.in, SiteRead), SiteRead, f.Name()); err != nil {
		return 0, err
	}
	return f.File.Read(p)
}
