package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins Figure 1 and the Lemma 4 experiments byte for byte to
// testdata: a refactor of the packages they measure must leave them
// unchanged.
func TestGolden(t *testing.T) {
	for golden, args := range map[string][]string{
		"figure1.golden":              nil,
		"figure1-bound-masses.golden": {"-bound", "-masses", "-trials", "300"},
	} {
		var out bytes.Buffer
		if err := run(&out, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v: output differs from testdata/%s\n got:\n%s\nwant:\n%s", args, golden, out.Bytes(), want)
		}
	}
}
