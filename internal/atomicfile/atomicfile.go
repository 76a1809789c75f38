// Package atomicfile writes files that either appear complete or not at
// all. Every write goes to a temporary file in the destination directory,
// is fsynced, and is renamed over the target in one step — a crash, OOM
// kill or Ctrl-C mid-write can never leave a truncated profile, trace,
// benchmark record or journal behind for a later run to choke on.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically with the given permissions.
// It is the drop-in replacement for os.WriteFile on outputs that other
// tools parse (JSON records, journals).
func WriteFile(path string, data []byte, perm os.FileMode) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return err
	}
	if err := f.Chmod(perm); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// File is a write handle whose contents only appear at the destination
// path on Commit. Until then — and forever, if Abort is called or the
// process dies — the destination is untouched.
type File struct {
	f    *os.File
	path string
	done bool
}

// Create opens a temporary file next to path (same directory, so the final
// rename cannot cross filesystems). Write to it as usual, then Commit.
func Create(path string) (*File, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("atomicfile: %w", err)
	}
	return &File{f: f, path: path}, nil
}

// Write appends to the temporary file.
func (a *File) Write(p []byte) (int, error) { return a.f.Write(p) }

// Chmod sets the mode the committed file will carry.
func (a *File) Chmod(perm os.FileMode) error { return a.f.Chmod(perm) }

// Commit makes the written contents durable and visible at the destination
// path: fsync, close, rename. After Commit the handle is spent.
func (a *File) Commit() error {
	if a.done {
		return fmt.Errorf("atomicfile: %s already committed or aborted", a.path)
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return fmt.Errorf("atomicfile: sync %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("atomicfile: close %s: %w", a.path, err)
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("atomicfile: %w", err)
	}
	return nil
}

// Abort discards the temporary file, leaving the destination untouched.
// Safe to defer alongside Commit: after a Commit it is a no-op.
func (a *File) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}
