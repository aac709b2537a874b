package fsutil

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicReplaces writes a file twice through the helper:
// each write leaves exactly the new bytes at the path, with the
// requested mode, and no temporary file behind.
func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	for _, want := range []string{"first\n", "second, longer\n"} {
		if err := WriteFileAtomic(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("read %q, want %q", got, want)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm()&^0o644 != 0 {
			t.Fatalf("mode %v exceeds the requested 0644", fi.Mode().Perm())
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temporary file left behind: %v", err)
		}
	}
}
