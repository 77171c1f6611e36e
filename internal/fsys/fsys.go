// Package fsys is the filesystem seam under the repository's durable
// stores. The guard checkpoint store and the serving layer's job store
// both promise the same thing — a reader only ever sees complete,
// validated files, whatever the disk did — but until this package that
// promise was tested only against the filesystems the test host
// happens to have. fsys narrows the store's view of the OS to exactly
// the operations the atomic write protocol uses (create a temp file,
// write, fsync, rename into place, remove, list, read back), so a
// deterministic fault-injecting implementation (Faulty, in errorfs.go)
// can stand in for a failing disk: ENOSPC mid-write, a lying short
// write, a rename torn by power loss, a directory that refuses to
// list. The production implementation (OS) is a thin veneer over the
// os package — one interface dispatch per syscall-bound operation,
// which BenchmarkChaosOverhead pins at <5% on the checkpoint hot path.
package fsys

import (
	"io"
	iofs "io/fs"
	"os"
)

// File is the narrowed handle the stores' write and read paths use:
// enough to stream a checkpoint in, fsync it, and read it back —
// nothing else, so a fault wrapper has few places to hide.
type File interface {
	io.Reader
	io.Writer
	// Name returns the path the file was opened or created with.
	Name() string
	// Sync flushes the file to stable storage.
	Sync() error
	// Close releases the handle.
	Close() error
}

// FS is the filesystem seam: the exact operation vocabulary of the
// tmp+fsync+rename protocol plus the recovery scan that reads it back.
type FS interface {
	// MkdirAll creates a directory path, like os.MkdirAll.
	MkdirAll(path string, perm iofs.FileMode) error
	// CreateTemp creates a new temp file in dir, like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Open opens a file (or directory, for directory fsync) read-only.
	Open(name string) (File, error)
	// ReadFile reads a whole file, like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory, like os.ReadDir.
	ReadDir(name string) ([]iofs.DirEntry, error)
	// Rename atomically replaces newpath with oldpath, like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes one file, like os.Remove.
	Remove(name string) error
	// RemoveAll deletes a tree, like os.RemoveAll.
	RemoveAll(path string) error
}

// OS is the production filesystem: direct delegation to the os
// package. Stores treat a nil FS as OS, so production call sites pay
// one nil check and one interface dispatch over the raw syscalls.
var OS FS = osFS{}

// OrOS returns fs, or OS when fs is nil — the defaulting idiom every
// store constructor uses.
func OrOS(fs FS) FS {
	if fs == nil {
		return OS
	}
	return fs
}

type osFS struct{}

func (osFS) MkdirAll(path string, perm iofs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]iofs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
