package main

import (
	"errors"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// memFS is an in-memory ioguard.FS: file contents by cleaned path and
// the set of directories, under one mutex. serve-mix hands it to the job
// store and the result cache, so every write, rename, listing and sync
// the service makes still runs through its persistence code, but none
// waits on the disk: on a shared virtual disk, file creation and fsync
// follow other tenants' I/O, and a cache hit (a handful of file writes
// beside its parsing) spread 30-50% from run to run of the same code.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, dirs: map[string]bool{"/": true, ".": true}}
}

func notExist(op, path string) error { return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist} }

func (m *memFS) ReadFile(path string) ([]byte, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return nil, notExist("open", path)
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) WriteFile(path string, data []byte, _ fs.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(path)] {
		return notExist("open", path)
	}
	if m.dirs[path] {
		return &fs.PathError{Op: "open", Path: path, Err: errors.New("is a directory")}
	}
	m.files[path] = append([]byte(nil), data...)
	return nil
}

// Rename moves a file, or a directory with everything under it. As on
// Linux, a directory may only replace an empty one.
func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(newpath)] {
		return notExist("rename", newpath)
	}
	if data, ok := m.files[oldpath]; ok {
		if m.dirs[newpath] {
			return &fs.PathError{Op: "rename", Path: newpath, Err: fs.ErrExist}
		}
		delete(m.files, oldpath)
		m.files[newpath] = data
		return nil
	}
	if !m.dirs[oldpath] {
		return notExist("rename", oldpath)
	}
	if _, ok := m.files[newpath]; ok || len(m.childrenLocked(newpath)) > 0 {
		return &fs.PathError{Op: "rename", Path: newpath, Err: fs.ErrExist}
	}
	oldPrefix := oldpath + string(filepath.Separator)
	newPrefix := newpath + string(filepath.Separator)
	for p, data := range m.files {
		if strings.HasPrefix(p, oldPrefix) {
			delete(m.files, p)
			m.files[newPrefix+p[len(oldPrefix):]] = data
		}
	}
	for p := range m.dirs {
		if strings.HasPrefix(p, oldPrefix) {
			delete(m.dirs, p)
			m.dirs[newPrefix+p[len(oldPrefix):]] = true
		}
	}
	delete(m.dirs, oldpath)
	m.dirs[newpath] = true
	return nil
}

// Remove deletes a file or an empty directory.
func (m *memFS) Remove(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		delete(m.files, path)
		return nil
	}
	if !m.dirs[path] {
		return notExist("remove", path)
	}
	if len(m.childrenLocked(path)) > 0 {
		return &fs.PathError{Op: "remove", Path: path, Err: errors.New("directory not empty")}
	}
	delete(m.dirs, path)
	return nil
}

func (m *memFS) MkdirAll(path string, _ fs.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := path; !m.dirs[p]; p = filepath.Dir(p) {
		if _, ok := m.files[p]; ok {
			return &fs.PathError{Op: "mkdir", Path: p, Err: errors.New("not a directory")}
		}
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) ReadDir(path string) ([]fs.DirEntry, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[path] {
		return nil, notExist("open", path)
	}
	return m.childrenLocked(path), nil
}

// childrenLocked lists the entries directly under dir, sorted by name.
func (m *memFS) childrenLocked(dir string) []fs.DirEntry {
	var out []fs.DirEntry
	for p, data := range m.files {
		if filepath.Dir(p) == dir && p != dir {
			out = append(out, memEntry{name: filepath.Base(p), size: int64(len(data))})
		}
	}
	for p := range m.dirs {
		if filepath.Dir(p) == dir && p != dir {
			out = append(out, memEntry{name: filepath.Base(p), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Glob matches pattern against every file and directory path, as
// filepath.Glob does against the disk.
func (m *memFS) Glob(pattern string) ([]string, error) {
	pattern = filepath.Clean(pattern)
	if _, err := filepath.Match(pattern, ""); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for p := range m.files {
		if ok, _ := filepath.Match(pattern, p); ok {
			out = append(out, p)
		}
	}
	for p := range m.dirs {
		if ok, _ := filepath.Match(pattern, p); ok {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Sync and SyncDir have nothing to flush; they only check the path.
func (m *memFS) Sync(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok && !m.dirs[path] {
		return notExist("sync", path)
	}
	return nil
}

func (m *memFS) SyncDir(path string) error { return m.Sync(path) }

// memEntry is one ReadDir result; it is also its own fs.FileInfo.
type memEntry struct {
	name string
	size int64
	dir  bool
}

func (e memEntry) Name() string               { return e.name }
func (e memEntry) IsDir() bool                { return e.dir }
func (e memEntry) Info() (fs.FileInfo, error) { return e, nil }
func (e memEntry) Size() int64                { return e.size }
func (e memEntry) ModTime() time.Time         { return time.Time{} }
func (e memEntry) Sys() any                   { return nil }

func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}

func (e memEntry) Mode() fs.FileMode {
	if e.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
