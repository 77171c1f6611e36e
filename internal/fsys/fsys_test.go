package fsys

import (
	"errors"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faults"
)

// writeFile publishes data at path with WriteAtomic.
func writeFile(fs FS, path string, data []byte) error {
	return WriteAtomic(fs, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := writeFile(OS, path, []byte("hello")); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	b, err := OS.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	sub := filepath.Join(dir, "x", "y")
	if err := OS.MkdirAll(sub, 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := OS.RemoveAll(filepath.Join(dir, "x")); err != nil {
		t.Fatalf("RemoveAll: %v", err)
	}
}

func TestOrOS(t *testing.T) {
	if OrOS(nil) != OS {
		t.Fatal("OrOS(nil) != OS")
	}
	reg := faults.NewRegistry(1)
	f := Faulty(nil, reg)
	if OrOS(f) != f {
		t.Fatal("OrOS(non-nil) must be identity")
	}
}

func TestFaultyNilInjectorIsInner(t *testing.T) {
	if got := Faulty(OS, nil); got != OS {
		t.Fatalf("Faulty(OS, nil) = %v, want OS itself", got)
	}
}

func TestFaultyErrorAtCall(t *testing.T) {
	dir := t.TempDir()
	reg := faults.NewRegistry(7)
	// Each publish issues two fsyncs, the file's and then the
	// directory's: sync 3 is the second file's.
	reg.Arm(faults.Fault{Site: SiteSync, Kind: faults.Error, Trigger: faults.Trigger{AtCall: 3}})
	fs := Faulty(OS, reg)

	if err := writeFile(fs, filepath.Join(dir, "one"), []byte("first")); err != nil {
		t.Fatalf("syncs 1-2 should pass: %v", err)
	}
	err := writeFile(fs, filepath.Join(dir, "two"), []byte("second"))
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("sync 3: err = %v, want ErrInjected", err)
	}
	// The protocol cleaned up: no temp file and no published "two".
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "one" {
		t.Fatalf("dir after failed write = %v, want just one", ents)
	}
}

// TestWriteAtomicShortWrite: a write the disk silently truncates
// (ShortWrite at fs-write: half the bytes, nil error) must fail the
// publish with io.ErrShortWrite, remove the temp file and leave the
// old contents in place.
func TestWriteAtomicShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	if err := writeFile(OS, path, []byte("old contents")); err != nil {
		t.Fatal(err)
	}
	reg := faults.NewRegistry(7)
	reg.Arm(faults.Fault{Site: SiteWrite, Kind: faults.ShortWrite, Trigger: faults.Trigger{AtCall: 1}})

	err := writeFile(Faulty(OS, reg), path, []byte("new contents"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want io.ErrShortWrite", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "rec.json" {
		t.Fatalf("dir after short write = %v, want just rec.json", ents)
	}
	if b, _ := os.ReadFile(path); string(b) != "old contents" {
		t.Fatalf("rec.json = %q, want the old contents", b)
	}
}

// recordFS logs the operations WriteAtomic issues, in order.
type recordFS struct {
	FS
	ops *[]string
}

func (r recordFS) CreateTemp(dir, pattern string) (File, error) {
	*r.ops = append(*r.ops, "CreateTemp")
	f, err := r.FS.CreateTemp(dir, pattern)
	return recordFile{File: f, ops: r.ops}, err
}

func (r recordFS) Open(name string) (File, error) {
	*r.ops = append(*r.ops, "Open("+filepath.Base(name)+")")
	f, err := r.FS.Open(name)
	return recordFile{File: f, ops: r.ops}, err
}

func (r recordFS) Rename(oldpath, newpath string) error {
	*r.ops = append(*r.ops, "Rename")
	return r.FS.Rename(oldpath, newpath)
}

func (r recordFS) Remove(name string) error {
	*r.ops = append(*r.ops, "Remove")
	return r.FS.Remove(name)
}

func (r recordFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	*r.ops = append(*r.ops, "ReadDir")
	return r.FS.ReadDir(name)
}

type recordFile struct {
	File
	ops *[]string
}

func (f recordFile) Write(p []byte) (int, error) {
	*f.ops = append(*f.ops, "Write")
	return f.File.Write(p)
}

func (f recordFile) Sync() error {
	*f.ops = append(*f.ops, "Sync")
	return f.File.Sync()
}

func (f recordFile) Close() error {
	*f.ops = append(*f.ops, "Close")
	return f.File.Close()
}

// TestWriteAtomicOpOrder pins the protocol's operation sequence — the
// one both durable stores issue, and the call numbering every chaos
// schedule's fs-* triggers count against.
func TestWriteAtomicOpOrder(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	fs := recordFS{FS: OS, ops: &ops}
	err := WriteAtomic(fs, filepath.Join(dir, "rec"), func(w io.Writer) error {
		for _, part := range []string{"a", "b"} {
			if _, err := io.WriteString(w, part); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CreateTemp", "Write", "Write", "Sync", "Close", "Rename",
		"Open(" + filepath.Base(dir) + ")", "Sync", "Close"}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops = %s\nwant  %s", strings.Join(ops, " "), strings.Join(want, " "))
	}
	if b, err := os.ReadFile(filepath.Join(dir, "rec")); err != nil || string(b) != "ab" {
		t.Fatalf("published %q, %v", b, err)
	}
}

func TestFaultyENOSPCWrite(t *testing.T) {
	dir := t.TempDir()
	reg := faults.NewRegistry(7)
	reg.Arm(faults.Fault{Site: SiteWrite, Kind: faults.ENOSPC, Trigger: faults.Trigger{AtCall: 1}})
	fs := Faulty(OS, reg)

	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Write err = %v, want ENOSPC", err)
	}
	if n != 5 {
		t.Fatalf("Write n = %d, want 5 (half landed)", n)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b, _ := os.ReadFile(f.Name())
	if string(b) != "01234" {
		t.Fatalf("torn temp = %q, want first half", b)
	}
}

func TestFaultyShortWriteIsSilent(t *testing.T) {
	dir := t.TempDir()
	reg := faults.NewRegistry(7)
	reg.Arm(faults.Fault{Site: SiteWrite, Kind: faults.ShortWrite, Trigger: faults.Trigger{AtCall: 1}})
	fs := Faulty(OS, reg)

	f, err := fs.CreateTemp(dir, "t-*")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	n, err := f.Write([]byte("0123456789"))
	if err != nil {
		t.Fatalf("ShortWrite must lie with a nil error, got %v", err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestFaultyTornRename(t *testing.T) {
	dir := t.TempDir()
	reg := faults.NewRegistry(7)
	reg.Arm(faults.Fault{Site: SiteRename, Kind: faults.TornRename, Trigger: faults.Trigger{AtCall: 1}})
	fs := Faulty(OS, reg)

	src := filepath.Join(dir, "src")
	dst := filepath.Join(dir, "dst")
	if err := os.WriteFile(src, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := fs.Rename(src, dst)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("torn rename must fail loudly, err = %v", err)
	}
	if _, serr := os.Stat(src); !os.IsNotExist(serr) {
		t.Fatalf("source must be gone after torn rename, stat err = %v", serr)
	}
	b, rerr := os.ReadFile(dst)
	if rerr != nil {
		t.Fatalf("destination must exist (torn): %v", rerr)
	}
	if string(b) != "01234" {
		t.Fatalf("destination = %q, want first half of source", b)
	}
}

func TestFaultyMkdirOpenReadDirReadFileRemove(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := faults.NewRegistry(7)
	for _, site := range []faults.Site{SiteMkdir, SiteOpen, SiteReadDir, SiteRead, SiteRemove} {
		reg.Arm(faults.Fault{Site: site, Kind: faults.Error, Trigger: faults.Trigger{AtCall: 1}})
	}
	fs := Faulty(OS, reg)

	if err := fs.MkdirAll(filepath.Join(dir, "sub"), 0o755); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("MkdirAll err = %v", err)
	}
	if _, err := fs.Open(path); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Open err = %v", err)
	}
	if _, err := fs.ReadDir(dir); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("ReadDir err = %v", err)
	}
	if _, err := fs.ReadFile(path); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("ReadFile err = %v", err)
	}
	if err := fs.Remove(path); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Remove err = %v", err)
	}
	// All faults were AtCall:1 and have fired; the second round passes.
	if err := fs.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatalf("MkdirAll second call: %v", err)
	}
	if _, err := fs.ReadFile(path); err != nil {
		t.Fatalf("ReadFile second call: %v", err)
	}
}

func TestFaultyDeterministicReplay(t *testing.T) {
	// Same schedule + Clone'd registries → byte-identical event logs
	// across two independent replays of the same operation sequence.
	master := faults.NewRegistry(42)
	master.Arm(faults.Fault{Site: SiteWrite, Kind: faults.Error, Trigger: faults.Trigger{Prob: 0.5}})
	master.Arm(faults.Fault{Site: SiteSync, Kind: faults.Error, Trigger: faults.Trigger{AtCall: 3}})

	run := func(reg *faults.Registry) []faults.Event {
		dir := t.TempDir()
		fs := Faulty(OS, reg)
		for i := 0; i < 8; i++ {
			_ = writeFile(fs, filepath.Join(dir, "f"), []byte("payload"))
		}
		return reg.Events()
	}
	a := run(master.Clone())
	b := run(master.Clone())
	if len(a) == 0 {
		t.Fatal("expected some fired events with Prob 0.5 over 8 writes")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
