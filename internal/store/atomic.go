package store

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file so that a crash at any point leaves
// either the old content or the new content at path, never a torn
// file: the payload goes to a temp file in the same directory (same
// filesystem, so the rename is atomic), is fsynced, and is renamed
// into place. The containing directory is synced best-effort so the
// rename itself survives a power loss. write receives the temp file
// and produces the content.
//
// Every durable artifact in the repo funnels through here: store
// blobs and manifests, gorderd's queued-job manifest, and cmd/gorder's
// graph/permutation outputs.
func WriteFileAtomic(path string, perm os.FileMode, write func(w io.Writer) error) error {
	return writeAtomicNamed(filepath.Dir(path), filepath.Base(path)+".tmp-*", perm, write,
		func() string { return path })
}

// writeAtomicNamed is WriteFileAtomic for content that names itself:
// write fills a temp file in dir (named by pattern), and once it is
// synced pathFor returns the destination — or "" to discard the file,
// when content-addressed bytes turn out to be stored already.
func writeAtomicNamed(dir, pattern string, perm os.FileMode, write func(w io.Writer) error, pathFor func() string) error {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(perm); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	path := pathFor()
	if path == "" {
		return nil // the deferred cleanup removes the temp file
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = "" // renamed away; nothing to clean up
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
