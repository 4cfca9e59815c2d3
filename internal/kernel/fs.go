package kernel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FS is the simulated in-memory filesystem shared by all processes.
// It stores whole files; paths are flat strings with '/' separators.
type FS struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string][]byte)}
}

// WriteFile creates or replaces a file with data itself, not a copy: the
// caller hands the buffer over and must not write it afterwards, as every
// caller passes a buffer built for the write or a request body nothing
// writes. The file keeps data capped at its length, so an AppendFile
// copies it instead of writing into the caller's array.
func (fs *FS) WriteFile(path string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = data[:len(data):len(data)]
}

// ReadFile returns the file's contents: the file's own bytes, not a copy,
// so callers must only read them. The slice's capacity is its length, so
// an append to it copies instead of reaching bytes an AppendFile adds.
// The FS never writes the bytes it hands out: WriteFile replaces a file
// with another buffer, and AppendFile writes only past every length a
// reader holds.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	data, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("fs: no such file: %s", path)
	}
	return data[:len(data):len(data)], nil
}

// AppendFile appends to a file, creating it if absent.
func (fs *FS) AppendFile(path string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = append(fs.files[path], data...)
}

// Exists reports whether path names a file.
func (fs *FS) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns the file's length in bytes, or -1 if absent.
func (fs *FS) Size(path string) int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	data, ok := fs.files[path]
	if !ok {
		return -1
	}
	return len(data)
}

// List returns all file paths under the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
