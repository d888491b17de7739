package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins the reduction's report byte for byte to testdata, but
// for its wall-time column: a refactor of the embeddings or the solvers
// must leave every certified parameter and verdict unchanged.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ovpreduce.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := maskWallTime(out.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/ovpreduce.golden\n got:\n%s\nwant:\n%s", got, want)
	}
}

// maskWallTime cuts the table's last column, wall time, which differs
// from run to run: from the header's "time" on, each table line reads
// "*".
func maskWallTime(out []byte) []byte {
	lines := bytes.Split(out, []byte("\n"))
	col := -1
	for i, l := range lines {
		if bytes.HasPrefix(l, []byte("solver ")) {
			col = bytes.LastIndex(l, []byte("time"))
		}
		if col >= 0 && len(l) > col && !bytes.HasPrefix(l, []byte("#")) {
			lines[i] = append(l[:col:col], '*')
		}
	}
	return bytes.Join(lines, []byte("\n"))
}
