package serve

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestWriteAtomicLeavesNoTempFile: a journal write leaves nothing but its
// target in the directory, both when it succeeds and when its rename fails
// (here because the target path is an existing directory).
func TestWriteAtomicLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	if err := writeAtomic(path, []byte(`{"ok":true}`)); err != nil {
		t.Fatalf("writeAtomic: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != `{"ok":true}` {
		t.Fatalf("journal file holds %q (%v)", got, err)
	}

	blocked := filepath.Join(dir, "shard-000000-000001.json")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(blocked, []byte(`{}`)); err == nil {
		t.Fatal("writeAtomic renamed a file onto a directory")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{"result.json", "shard-000000-000001.json"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("journal directory holds %q, want only %q", names, want)
	}
}
