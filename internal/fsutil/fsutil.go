// Package fsutil holds the file-system helpers shared by the pond
// commands and the pondserve daemon.
package fsutil

import "os"

// WriteFileAtomic replaces path with data: it writes path+".tmp" with
// perm and renames it over path, so a reader sees either the previous
// file or the complete new one, never a torn write. It does not fsync,
// so a power loss can still lose the new contents.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, perm); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
